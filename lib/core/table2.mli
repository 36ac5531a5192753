(** Table II — the full evaluation matrix: per tool, the initial and
    optimized designs with LOC, automation, quality, controllability,
    flexibility and the raw synthesis indicators. *)

type column = {
  design : Design.t;
  measured : Metrics.measured;
  loc : int;
  alpha : float;
  quality : float;
}

type row = {
  tool : Design.tool;
  initial : column;
  optimized : column;
  delta_l : int;
  controllability : float;   (** C_Q, percent of the Verilog optimum *)
  flexibility : float;       (** F_Q *)
}

val compute :
  ?jobs:int ->
  ?keep_going:bool ->
  ?tools:Design.tool list ->
  ?kernel:(module Kernel.KERNEL) ->
  unit ->
  row list * Flow.error list
(** Measures every design of [kernel] (default the paper's IDCT; cached
    per kernel after the first call).  The measurements are warmed in
    one {!Evaluate.measure_all} batch on the domain pool; the rows are
    then assembled sequentially from the cache, so the result is
    identical for any job count.  [tools] restricts the rows
    (registration order, duplicates ignored); the anchor pair — the
    kernel's first registered tool, Verilog for the IDCT — is still
    measured, since alpha and C_Q are normalized against it.  Restricted
    tables are not cached.

    Fail-fast (the default) raises the first failure as a
    {!Flow.Error}, so the error list is empty.  With [keep_going] every
    design is still measured, a tool whose initial or optimized design
    fails loses its column pair, and the failures come back as typed
    errors.  Because every indicator is normalized against the anchor
    columns, a failed anchor design yields no rows at all.  Partial
    results are not memoized. *)

val render : row list -> string
(** The table in the paper's layout (rows = indicators, columns = tools). *)
