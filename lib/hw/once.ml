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

module Table (K : Hashtbl.HashedType) = struct
  module H = Hashtbl.Make (K)

  (* A key is [Running] while its first computation is in flight, then
     [Done].  A raising computation removes its cell, so the failure
     reaches the callers already waiting on it and nobody after them. *)
  type 'v cell = Running of 'v Lazy.t | Done of 'v
  type 'v t = { lock : Mutex.t; cells : 'v cell H.t }

  let create n = { lock = Mutex.create (); cells = H.create n }

  let find_or_compute t key f =
    let cell =
      Mutex.protect t.lock (fun () ->
          match H.find_opt t.cells key with
          | Some c -> c
          | None ->
              let c = Running (lazy (f ())) in
              H.replace t.cells key c;
              c)
    in
    match cell with
    | Done v -> v
    | Running l -> (
        (* Every forcer settles the cell; only the first finds it still
           holding [l] (a [clear] or a retry may have replaced it). *)
        let settle outcome =
          Mutex.protect t.lock (fun () ->
              match H.find_opt t.cells key with
              | Some (Running l') when l' == l -> (
                  match outcome with
                  | Some v -> H.replace t.cells key (Done v)
                  | None -> H.remove t.cells key)
              | _ -> ())
        in
        match force l with
        | v ->
            settle (Some v);
            v
        | exception e ->
            let bt = Printexc.get_raw_backtrace () in
            settle None;
            Printexc.raise_with_backtrace e bt)

  let mem t key =
    Mutex.protect t.lock (fun () ->
        match H.find_opt t.cells key with Some (Done _) -> true | _ -> false)

  let length t = Mutex.protect t.lock (fun () -> H.length t.cells)
  let clear t = Mutex.protect t.lock (fun () -> H.reset t.cells)
end
