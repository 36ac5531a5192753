(** The kernel registration table (DESIGN.md §15).

    {!Registry} organises the seven tool flows as first-class modules;
    this table does the same one level up, for benchmark kernels.  A
    {!KERNEL} bundles the kernel's {!Flow.spec} (stimulus, golden
    reference, compliance procedure, timeout policy) with its per-tool
    design {!inventory} and Fig. 1 axis labelling.  Fig1, Table2,
    comply, sweep, {!Dse.Space} and the serve protocol all iterate
    {!all}, so adding a kernel is data plus one generator per tool.

    Three kernels are registered: the paper's IDCT (all 7 tools, the
    byte-pinned baseline artifacts), the FIR of {!Second_kernel} and the
    blocked matmul of {!Matmul_kernel} (3 tools each). *)

type inventory = {
  inv_tool : Design.tool;
  inv_initial : Design.t;
  inv_optimized : Design.t;
  inv_sweep : Design.t list;  (** every configuration (the Fig. 1 points) *)
  inv_space : Registry.axis list list;
      (** [inv_sweep]'s knob space as chart data, tiling the sweep
          row-major exactly as {!Registry.TOOL.space} does *)
  inv_delta_loc : int;  (** Table II "Modification dL" *)
}

module type KERNEL = sig
  val spec : Flow.spec

  val aliases : string list
  (** lower-case CLI names accepted for [--kernel] *)

  val description : string

  val perf_label : string
  (** the Fig. 1 vertical-axis label *)

  val inventories : inventory list
  (** per-tool design inventories; the first entry's tool anchors
      Table II's relative columns *)
end

val all : (module KERNEL) list

val idct : (module KERNEL)
(** The paper's kernel — the default wherever [--kernel] is omitted. *)

val name : (module KERNEL) -> string
(** The kernel's canonical name: its [spec.spec_name] (also the
    store-key prefix, so per-kernel cache entries stay disjoint). *)

val spec : (module KERNEL) -> Flow.spec
val description : (module KERNEL) -> string
val perf_label : (module KERNEL) -> string
val inventories : (module KERNEL) -> inventory list

val find : string -> (module KERNEL) option
(** Lookup by canonical [spec_name]. *)

val parse_kernel : string -> (module KERNEL) option
(** Case-insensitive lookup by CLI alias ([--kernel], serve requests). *)

val kernel_names : unit -> string list

val unknown_kernel_msg : string -> string
(** ["unknown kernel \"x\" (kernels: idct, fir8, matmul8)"] — the
    diagnostic shared by the CLI and the serve request parser. *)

val tools : (module KERNEL) -> Design.tool list
(** The tools with an inventory for this kernel, registration order. *)

val inventory : (module KERNEL) -> Design.tool -> inventory option

val inventory_exn : (module KERNEL) -> Design.tool -> inventory
(** @raise Invalid_argument ["kernel k has no t designs (tools: ...)"] if
    the kernel has no such tool. *)

val initial : (module KERNEL) -> Design.tool -> Design.t
(** @raise Invalid_argument if the kernel has no such tool (message
    lists the tools it does have); same for the accessors below. *)

val optimized : (module KERNEL) -> Design.tool -> Design.t
val sweep : (module KERNEL) -> Design.tool -> Design.t list
val space : (module KERNEL) -> Design.tool -> Registry.axis list list
val delta_loc : (module KERNEL) -> Design.tool -> int

val all_designs : (module KERNEL) -> Design.t list
(** Every sweep point of every tool, registration order. *)

val legend_line : (module KERNEL) -> string
(** The Fig. 1 legend line for the kernel's tools (trailing newline). *)

val caption : (module KERNEL) -> string
(** The Fig. 1 axis caption built from [perf_label]. *)
