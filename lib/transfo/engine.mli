(** Script execution with per-step verification (DESIGN.md §17).

    Every applied step is immediately followed by the discharge of its
    {!Verify.obligation} {e and} a {!Hw.Equiv.crosscheck} of the result
    (at 1 and at 4 lanes), so a broken transformation is caught at the
    step that introduced it, with the step name in the error. *)

type tracer = {
  wrap : 'a. design:string -> stage:string -> (unit -> 'a) -> 'a;
  counter : string -> int -> unit;
}
(** Tracing is injected (rather than depending on [Core.Trace] directly)
    to keep the library dependency graph acyclic: [Core.Registry] uses
    this engine to re-derive designs, and installs the real tracer at
    module initialisation. *)

val set_tracer : tracer -> unit

type error =
  | Unknown_transfo of string
  | Precondition_failed of { pf_step : string; pf_reason : string }
  | Verify_failed of {
      vf_step : string;
      vf_obligation : string;
      vf_reason : string;
    }

val error_to_string : error -> string

type step_report = {
  sr_step : string;  (** canonical step text, e.g. ["retime 2"] *)
  sr_obligation : string;
  sr_nodes_before : int;
  sr_nodes_after : int;
}

type report = { rep_subject : Subject.t; rep_steps : step_report list }

val apply_step :
  ?cycles:int ->
  ?seed:int ->
  (module Catalog.TRANSFO) ->
  arg:int option ->
  Subject.t ->
  (Subject.t * step_report, error) result
(** One step: check precondition, apply, discharge the obligation over
    [cycles] (default 256) random cycles with [seed] (default 7), then
    crosscheck the result's simulation against the reference interpreter
    (at 1 and at 4 lanes).  Exceptions raised by the transformation
    or the checkers are reported as failures, never propagated. *)

val run :
  ?cycles:int ->
  ?seed:int ->
  Script.t ->
  Subject.t ->
  (report, error) result
(** Folds {!apply_step} over the script, resolving step names through
    {!Catalog.find}.  Stops at the first failing step. *)
