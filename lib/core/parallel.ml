(* Domain-pool evaluation engine.

   Regenerating the paper's artifacts is dominated by evaluation: Fig. 1
   alone measures ~100 synthesized circuits, each one a cycle-accurate
   simulation plus a synthesis report.  The designs are independent, so
   [map] fans them out over a fixed-size pool of domains while keeping the
   result order deterministic (results land in a slot array indexed by the
   input position, never in completion order).

   The pool size defaults to [Domain.recommended_domain_count ()], can be
   pinned per call with [?jobs], and per process with the [HLSVHC_JOBS]
   environment variable.  [map ~jobs:1] runs inline on the calling domain —
   no pool, byte-identical to the historical sequential path.

   Jobs must not share mutable builder state: a design's [Lazy] circuit
   constructor is forced inside the single job that owns it, so every
   [Hw.Builder] hash-cons table lives and dies within one domain (see
   DESIGN.md §9). *)

let env_warned = Atomic.make false

let env_jobs () =
  match Sys.getenv_opt "HLSVHC_JOBS" with
  | None -> None
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 1 -> Some n
      | _ ->
          (* Silently time-slicing a typo onto the default would be
             indistinguishable from the variable working; say so, once. *)
          if not (Atomic.exchange env_warned true) then
            Printf.eprintf
              "hlsvhc: ignoring invalid HLSVHC_JOBS=%S (want a positive \
               integer); using %d worker domains\n\
               %!"
              s
              (Domain.recommended_domain_count ());
          None)

let default_jobs () =
  match env_jobs () with
  | Some n -> n
  | None -> Domain.recommended_domain_count ()

let clamp_jobs jobs n =
  let requested =
    match jobs with Some j -> max 1 j | None -> default_jobs ()
  in
  max 1 (min requested n)

(* The pool: an atomic cursor over the input array; each worker claims
   the next index, runs the job and stores its value in that slot.  The
   first exception raised is kept in [failed], the remaining workers
   drain without starting new jobs, and every domain is joined before it
   is re-raised — the pool never deadlocks on a raising job. *)
let pooled ~jobs f items =
  let n = Array.length items in
  (* Capture the trace switch once, before spawning: workers must agree
     with the caller on whether to record, even if the flag is toggled
     mid-run. *)
  let traced = Trace.enabled () in
  let results = Array.make n None in
  let next = Atomic.make 0 in
  let failed = Atomic.make None in
  let worker wid () =
    (* The claim loop, returning how many jobs this worker ran and the
       wall time it spent inside them (its busy time, as opposed to the
       tail time it idled waiting for the slowest sibling). *)
    let run_loop () =
      let claimed = ref 0 and busy = ref 0.0 in
      let running = ref true in
      while !running do
        let i = Atomic.fetch_and_add next 1 in
        if i >= n || Atomic.get failed <> None then running := false
        else begin
          incr claimed;
          let t0 = if traced then Unix.gettimeofday () else 0.0 in
          (match f items.(i) with
          | v -> results.(i) <- Some v
          | exception e ->
              let bt = Printexc.get_raw_backtrace () in
              ignore (Atomic.compare_and_set failed None (Some (e, bt))));
          if traced then busy := !busy +. (Unix.gettimeofday () -. t0)
        end
      done;
      (!claimed, !busy)
    in
    if traced then begin
      Trace.with_span
        ~design:(Printf.sprintf "pool/worker%d" wid)
        ~stage:"worker"
        (fun () ->
          let claimed, busy = run_loop () in
          Trace.add_counter "claimed" claimed;
          Trace.add_counter "busy_us" (int_of_float (busy *. 1e6)));
      (* Hand this domain's span buffer to the collector before the
         domain dies — spans recorded by the jobs themselves included. *)
      Trace.flush_domain ()
    end
    else ignore (run_loop ())
  in
  let spawn_and_join () =
    let domains = List.init jobs (fun wid -> Domain.spawn (worker wid)) in
    List.iter Domain.join domains
  in
  if traced then
    Trace.with_span ~design:"pool" ~stage:"map" (fun () ->
        Trace.add_counter "jobs" jobs;
        Trace.add_counter "items" n;
        spawn_and_join ())
  else spawn_and_join ();
  (match Atomic.get failed with
  | Some (e, bt) -> Printexc.raise_with_backtrace e bt
  | None -> ());
  Array.to_list (Array.map Option.get results)

(* An empty list or a single job runs inline on the calling domain. *)
let map ?jobs f xs =
  let items = Array.of_list xs in
  match clamp_jobs jobs (Array.length items) with
  | 1 -> List.map f xs
  | jobs -> pooled ~jobs f items

(* Keep-going is [map] over a job that cannot raise: each slot captures
   its own outcome, so the pool's abort never fires. *)
let map_result ?jobs f xs =
  map ?jobs
    (fun x ->
      match f x with
      | v -> Ok v
      | exception e -> Error (e, Printexc.get_raw_backtrace ()))
    xs

(* Content-keyed in-memory result cache, shared across domains: a keyed
   once-table, so a key missed by two domains at once (two serve
   connections asking for one unstored design, say) is computed by one
   and waited for by the other.  A failed computation is not cached. *)
module Memo (V : sig
  type t
end) =
struct
  module T = Hw.Once.Table (struct
    type t = string

    let equal = String.equal
    let hash = Hashtbl.hash
  end)

  let table : V.t T.t = T.create 64
  let find_or_compute ~key f = T.find_or_compute table key f
  let mem key = T.mem table key
  let size () = T.length table
  let clear () = T.clear table
end
