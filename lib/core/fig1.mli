(** Fig. 1 — design-space exploration in the Performance x Area plane.

    One series per tool; each point is one explored configuration
    (Verilog 3, Chisel 3, BSC 26, XLS 19, MaxCompiler 2, Bambu 42,
    Vivado HLS 5 — 100 synthesized circuits). *)

type point = {
  label : string;
  area : int;
  throughput_mops : float;
  fmax_mhz : float;
}

type series = { tool : Design.tool; points : point list }

val compute :
  ?jobs:int ->
  ?keep_going:bool ->
  ?tools:Design.tool list ->
  ?kernel:(module Kernel.KERNEL) ->
  unit ->
  series list * Flow.error list
(** Measures every sweep configuration of [kernel] (default the paper's
    IDCT) in one {!Evaluate.measure_all} batch ([jobs] defaults to
    {!Parallel.default_jobs}) and caches the finished series per
    (kernel, tool).  The result is deterministic: the same series, point
    for point, for any job count.

    Fail-fast (the default) raises the first failure as a
    {!Flow.Error}, so the error list is empty.  With [keep_going] a
    failed point is dropped from its series and returned as a typed
    error, in sweep order; every surviving point is identical to the
    fault-free run.  Series with failures are not cached, so a later
    fault-free run recomputes them in full. *)

val clear_cache : unit -> unit
(** Drop the per-tool series cache (tests and benchmarks).  Memoized
    measurements survive; see {!Evaluate.clear_measure_cache}. *)

val points :
  ?jobs:int ->
  ?tools:Design.tool list ->
  ?kernel:(module Kernel.KERNEL) ->
  unit ->
  (Design.tool * point) list
(** The fail-fast {!compute}, flattened to one [(tool, point)] list in
    series order — the point set the DSE cross-check compares against. *)

val write_json :
  ?kernel:(module Kernel.KERNEL) -> string -> series list -> unit
(** Write the series as JSON (tool, label, area, throughput, fmax) via
    {!Trace.write_atomic} — the machine-readable twin of the ASCII
    scatter ([hlsvhc fig1 --json]).  Non-default kernels add a
    ["kernel"] field; the IDCT artifact is byte-identical to the
    pre-kernel format. *)

val render : ?kernel:(module Kernel.KERNEL) -> series list -> string
(** Data table plus an ASCII log-log scatter of the plane; [kernel]
    supplies the axis caption and legend. *)
