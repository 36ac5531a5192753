(** Domain-safe forcing of a shared lazy value.

    [Lazy.force] is not safe across domains: a second domain forcing a
    lazy that another domain is still computing gets [Lazy.Undefined].
    {!force} excludes concurrent forcers of {e one} lazy only: a short
    table lock finds or creates a mutex for the lazy being forced, and
    the table holds only lazies that are being forced right now, matched
    by physical identity.  Different lazies are forced at the same time,
    and a lazy whose body forces another lazy through {!force} (a derived
    design forcing its base) is fine as long as no cycle closes.

    Every forcer of a lazy shared between domains must go through
    {!force}; one raw [Lazy.force] racing it can still fail. *)

val force : 'a Lazy.t -> 'a
(** [force l] is [Lazy.force l], excluded against every other [force l]
    in flight.  A concurrent forcer waits, then reads the value (or
    re-raises the exception the body raised: every forcer of a raising
    lazy gets that same exception).

    @raise Lazy.Undefined if [l]'s own body forces [l]. *)

(** Keyed once-cells: a memo table whose computation runs once per key
    even when several domains miss on that key at the same time.

    The table lock guards lookups only.  The computation runs outside it,
    inside a lazy forced with {!force}, so a second caller of a key in
    flight waits for that key alone and then reads its value.  A
    computation that raises is not cached: the callers already waiting
    on it get its exception, and the next caller computes again. *)
module Table (K : Hashtbl.HashedType) : sig
  type 'v t

  val create : int -> 'v t

  val find_or_compute : 'v t -> K.t -> (unit -> 'v) -> 'v
  (** The value stored for the key, or the result of [f ()], which is
      stored.  [f] runs at most once per key at a time. *)

  val mem : 'v t -> K.t -> bool
  (** Whether a computed value is stored for the key (a computation in
      flight does not count). *)

  val length : 'v t -> int
  (** Keys stored or in flight. *)

  val clear : 'v t -> unit
  (** Drop every key.  A computation in flight finishes for its waiting
      callers but is not stored. *)
end
