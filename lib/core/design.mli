(** Uniform descriptor of one evaluated design point.

    A design's circuit (or MaxJ system) is a lazy, built on first use and
    shared by every caller.  Force it with {!force} only: concurrent
    forcers of one design wait for its single build, and different
    designs build at the same time. *)

type tool = Verilog | Chisel | Bsv | Dslx | Maxj | Bambu | Vivado_hls

type pcie = {
  system : Maxj.Manager.system Lazy.t;
  simulate : Axis.Block.t list -> Axis.Block.t list;
      (** the design's own bit-true stream simulator — compliance and the
          flow's verify stage dispatch on the design itself *)
}

type impl =
  | Stream of Hw.Netlist.t Lazy.t
      (** AXI-Stream wrapped circuit (everything except MaxJ) *)
  | Pcie of pcie  (** MaxCompiler system: kernel + PCIe manager *)

type t = {
  tool : tool;
  label : string;          (** e.g. "initial", "optimized", "stages=4" *)
  config_desc : string;    (** tool options in force *)
  loc_fu : int;            (** L^FU: functional-unit source lines *)
  loc_axi : int;           (** L^AXI: hand-written adapter lines (0 if generated) *)
  loc_conf : int;          (** L^Conf: configuration lines *)
  impl : impl;
  listing : string;        (** the counted source text *)
}

val loc : t -> int
(** [L = L^FU + L^AXI + L^Conf]. *)

val force : 'a Lazy.t -> 'a
(** Domain-safe forcing of a shared lazy (circuit, system): {!Hw.Once.force}.
    Concurrent forcers of one design wait for its single build; different
    designs elaborate at the same time.  Every force of a registry lazy
    goes through here, including a derived design's force of its base. *)

val language_name : tool -> string
val tool_name : tool -> string
val all_tools : tool list
(** In the paper's column order. *)
