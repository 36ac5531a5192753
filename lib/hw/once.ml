(* No [Lazy.is_val] fast path: while one domain is mid-force the tag is
   already not [lazy_tag], so [is_val] answers [true] and an unexcluded
   [Lazy.force] would still race (observed on OCaml 5.1). *)

type entry = { key : Obj.t; lock : Mutex.t; mutable forcers : int }

let table_lock = Mutex.create ()
let forcing : entry list ref = ref []

let enter key =
  Mutex.protect table_lock (fun () ->
      match List.find_opt (fun e -> e.key == key) !forcing with
      | Some e ->
          e.forcers <- e.forcers + 1;
          e
      | None ->
          let e = { key; lock = Mutex.create (); forcers = 1 } in
          forcing := e :: !forcing;
          e)

let leave e =
  Mutex.protect table_lock (fun () ->
      e.forcers <- e.forcers - 1;
      if e.forcers = 0 then forcing := List.filter (fun e' -> e' != e) !forcing)

let force l =
  let e = enter (Obj.repr l) in
  Fun.protect
    ~finally:(fun () -> leave e)
    (fun () ->
      (* The mutex is error-checking: re-locking it from its holder means
         the lazy's body forces the lazy itself. *)
      (try Mutex.lock e.lock with Sys_error _ -> raise Lazy.Undefined);
      Fun.protect
        ~finally:(fun () -> Mutex.unlock e.lock)
        (fun () -> Lazy.force l))
