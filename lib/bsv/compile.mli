(** Compilation of rule modules to {!Hw.Netlist} circuits.

    For each rule the compiler materializes

    - [CAN_FIRE]  — the guard (with action conditions folded in under
      [-aggressive-conditions]);
    - [WILL_FIRE] — [CAN_FIRE] minus every higher-urgency conflicting rule
      that fires;

    and for each register a write network selecting among the firing
    writers (priority chain or one-hot, per {!Options.mux_style}).
    Module inputs/outputs become circuit ports. *)

val compile : ?options:Options.t -> Lang.modul -> Hw.Netlist.t

val compile_with_schedule :
  ?options:Options.t -> Lang.modul -> Hw.Netlist.t * Sched.t
(** The netlist and the caller's own schedule ({!Sched.analyze}).

    Compiles are memoized process-wide on what the netlist depends on:
    the module (by physical identity), the scheduled rule order, the
    conflict matrix, [aggressive_conditions] and [mux_style].  Option
    points whose schedules agree there (the effort levels of one
    configuration, usually) share one compile and the physically same
    netlist. *)
