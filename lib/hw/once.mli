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
