(** Domain-pool evaluation engine.

    Evaluating the paper's artifacts means measuring ~100 independent
    synthesized circuits (Fig. 1) — an embarrassingly parallel workload.
    [map] fans jobs out over a fixed-size pool of domains with
    deterministic result ordering; {!Memo} is the shared, once-per-key
    result cache the evaluation pipeline layers on top.

    Jobs must not share mutable builder state across domains: a design's
    lazy circuit constructor is forced, through {!Design.force}, inside
    the job that measures it (see DESIGN.md §9).  That force excludes only
    other forcers of the same design, so different designs elaborate in
    parallel across the pool. *)

val default_jobs : unit -> int
(** The [HLSVHC_JOBS] environment variable when set to a positive
    integer, otherwise [Domain.recommended_domain_count ()].  A set but
    invalid [HLSVHC_JOBS] falls back to the domain count with a one-time
    stderr warning. *)

val map : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map ?jobs f xs] is [List.map f xs] computed on a pool of
    [min jobs (List.length xs)] domains ([default_jobs ()] when [jobs] is
    omitted; [~jobs:1] runs inline on the calling domain).  Results keep
    input order regardless of completion order.  If a job raises, the
    pool stops claiming new jobs, every domain is joined (no deadlock),
    and the first exception is re-raised on the caller.

    When {!Trace} is enabled, a pooled map records a ["pool"/"map"] span
    (counters [jobs], [items]) on the caller and one
    ["pool/workerN"/"worker"] span per domain (counters [claimed],
    [busy_us]); each worker flushes its domain-local span buffer before
    exiting, so traces recorded inside jobs survive the domain. *)

val map_result :
  ?jobs:int ->
  ('a -> 'b) ->
  'a list ->
  ('b, exn * Printexc.raw_backtrace) result list
(** The keep-going [map]: every item runs to completion regardless of
    other items' failures, and each slot carries its own outcome — the
    job's value, or the exception (with backtrace) it raised.  Result
    order is the input order for any job count, and the call itself
    never raises on a failing job.  It is {!map} over a job that
    captures its own outcome, so the pool, trace spans and [~jobs:1]
    inline path are {!map}'s. *)

module Memo (V : sig
  type t
end) : sig
  val find_or_compute : key:string -> (unit -> V.t) -> V.t
  (** Return the cached value for [key], or run the thunk and cache its
      result ({!Hw.Once.Table}).  The lock guards lookups only: a second
      caller of a key in flight waits for that key's computation and
      returns its value, so the thunk runs once per key.  A raising thunk
      caches nothing; the next caller runs it again. *)

  val mem : string -> bool
  val size : unit -> int
  val clear : unit -> unit
end
