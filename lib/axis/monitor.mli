(** AXI-Stream protocol monitor.

    Checks a per-cycle trace of the master-side handshake against the
    protocol rules the paper's IP-library setting relies on:

    - stability: once [m_valid] is asserted with [m_ready] low, [m_valid],
      every data lane and [m_last] must hold unchanged until the beat is
      accepted;
    - framing: [m_last] must be asserted on exactly every eighth accepted
      beat;
    - no spurious last: [m_last] only with [m_valid].

    The checker is online: {!observe} takes one cycle at a time and keeps
    only the beat count and the last stalled beat, so a testbench checks
    as it simulates instead of recording the trace.  {!check} is the same
    rules folded over a recorded trace. *)

type sample = {
  cycle : int;
  valid : bool;
  ready : bool;
  last : bool;
  data : int array;
}

type violation = { at_cycle : int; rule : string }

type t
(** An online checker for one stream. *)

val create : unit -> t

val observe :
  t -> cycle:int -> valid:bool -> ready:bool -> last:bool -> data:int array ->
  unit
(** Checks one cycle; cycles must be observed in increasing order.  [data]
    is only read during the call (the checker copies it when the beat
    stalls), so the caller may reuse the array.  Allocates only to record a
    violation. *)

val finish : t -> violation list
(** Violations so far, in the order they were found. *)

val check : sample list -> violation list
(** [observe] over every sample, then [finish].  Samples must be in
    increasing cycle order. *)

val pp_violation : Format.formatter -> violation -> unit
