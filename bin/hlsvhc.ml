(* Command-line interface for the HLS-versus-HC reproduction. *)

open Cmdliner

(* Print one diagnostic line on stderr and exit with [code] (default 2,
   a usage error). *)
let die ?(code = 2) fmt =
  Printf.ksprintf (fun msg -> prerr_endline msg; exit code) fmt

(* A converter from a parser that reports its own error text. *)
let conv parse name =
  Arg.conv
    ( (fun s -> Result.map_error (fun e -> `Msg e) (parse s)),
      fun ppf v -> Format.pp_print_string ppf (name v) )

(* The accepted names live on the TOOL modules, next to everything else
   each flow registers; [Registry.parse_tools] is the one shared parser and
   its errors list the valid names. *)
let tool_conv =
  conv
    (fun s ->
      match Core.Registry.parse_tools s with
      | Ok [ t ] -> Ok t
      | Ok _ -> Error (Printf.sprintf "expected a single tool, got %S" s)
      | Error e -> Error e)
    Core.Design.tool_name

let tools_conv =
  conv Core.Registry.parse_tools (fun ts ->
      String.concat "," (List.map Core.Design.tool_name ts))

let tools_opt =
  Arg.(
    value
    & opt (some tools_conv) None
    & info [ "tools" ] ~docv:"TOOLS"
        ~doc:
          "Restrict to a comma-separated, case-insensitive list of tools \
           (e.g. $(b,verilog,bsv)).  Unknown names fail with the list of \
           valid tools.")

let tool_pos =
  Arg.(required & pos 0 (some tool_conv) None & info [] ~docv:"TOOL")

(* Kernel selection mirrors tool selection: names live on the KERNEL
   modules, [Core.Kernel.parse_kernel] is the one shared parser and the
   error lists the registered kernels. *)
let kernel_conv =
  conv
    (fun s ->
      Option.to_result ~none:(Core.Kernel.unknown_kernel_msg s)
        (Core.Kernel.parse_kernel s))
    Core.Kernel.name

let kernel_opt =
  Arg.(
    value
    & opt kernel_conv Core.Kernel.idct
    & info [ "kernel" ] ~docv:"KERNEL"
        ~doc:
          "Benchmark kernel to evaluate (case-insensitive; default \
           $(b,idct), the paper's IEEE-1180 inverse DCT).  Registered \
           kernels: $(b,idct), $(b,fir8), $(b,matmul8).  Unknown names \
           fail with the list of valid kernels.")

(* A tool the kernel does not implement is a usage error, not an empty
   artifact. *)
let kernel_inventory kernel tool =
  match Core.Kernel.inventory_exn kernel tool with
  | inv -> inv
  | exception Invalid_argument msg -> die "hlsvhc: %s" msg

(* [--kernel TOOL --opt]: one design of one kernel, with its kernel. *)
let design_term =
  let pick kernel tool optimized =
    let inv = kernel_inventory kernel tool in
    ( kernel,
      if optimized then inv.Core.Kernel.inv_optimized
      else inv.Core.Kernel.inv_initial )
  in
  Term.(
    const pick $ kernel_opt $ tool_pos
    $ Arg.(
        value & flag
        & info [ "opt"; "optimized" ] ~doc:"Use the optimized design."))

let jobs_opt =
  Arg.(
    value
    & opt (some int) None
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Evaluation worker domains (default: \\$(b,HLSVHC_JOBS) or the \
           machine's recommended domain count).  Results are identical for \
           any job count.")

let trace_opt =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Record a span trace of the measurement pipeline (per-stage wall \
           times, netlist/schedule sizes, cache counters) and write it as \
           JSON to $(docv).  Summarize with $(b,hlsvhc stats) $(docv).  \
           Tracing does not change any printed artifact.")

let store_opt =
  Arg.(
    value
    & opt (some string) None
    & info [ "store" ] ~docv:"DIR"
        ~doc:
          "Back the measurement cache with a persistent content-addressed \
           result store rooted at $(docv) (created if missing).  Results \
           survive restarts and are shared with every other client of the \
           same directory — a warm second run re-reads every point instead \
           of re-measuring it.  Entries are validated (schema version, \
           checksum, key) on read; invalid ones are re-measured.")

(* Attach the persistent store before any evaluation fans out; a store
   that cannot be opened is a usage error, not a measurement result. *)
let attach_store = function
  | None -> None
  | Some dir -> (
      match Store.attach dir with
      | Ok t -> Some t
      | Error e -> die "hlsvhc: --store %s: %s" dir e)

let keep_going_flag =
  Arg.(
    value & flag
    & info [ "k"; "keep-going" ]
        ~doc:
          "Do not abort the sweep on a failing design point: record its \
           typed error, keep measuring every other point, print a failure \
           summary on stderr and exit nonzero.  Without this flag the \
           first failure aborts the run (fail-fast), with the same one-row \
           summary and exit status.")

let fault_opt =
  Arg.(
    value
    & opt (some string) None
    & info [ "fault" ] ~docv:"SPEC"
        ~doc:
          (Printf.sprintf
             "Inject a deterministic fault into the flow (for testing the \
              resilience layer): $(docv) is FAULT:TARGET[:SEED] with FAULT \
              one of $(b,engine-crash), $(b,stall), $(b,poison), \
              $(b,protocol), $(b,crash@STAGE) (STAGE one of %s), or — for \
              the serve daemon's connection paths — $(b,slow-client), \
              $(b,conn-drop) or $(b,shed) (SEED bounds how many connections \
              fire, 0 = all), and TARGET a Tool/label substring ($(b,*) for \
              every design; unused by the connection faults).  The \
              $(b,HLSVHC_FAULT) environment variable is equivalent."
             (String.concat ", " Core.Faultinject.crash_stages)))

(* Arm the fault-injection harness from --fault, else from HLSVHC_FAULT;
   a malformed spec is a usage error, not a measurement result. *)
let arm_fault = function
  | Some s -> (
      match Core.Faultinject.parse s with
      | Ok spec -> Core.Faultinject.arm spec
      | Error e -> die "hlsvhc: --fault %S: %s" s e)
  | None -> (
      match Core.Faultinject.load_env () with
      | Ok _ -> ()
      | Error e -> die "hlsvhc: %s" e)

(* Run [f] with tracing enabled when [trace] names a file; the spans are
   drained and written after [f] finishes, even if it raises. *)
let with_trace trace f =
  match trace with
  | None -> f ()
  | Some file ->
      Core.Trace.set_enabled true;
      Fun.protect
        ~finally:(fun () ->
          Core.Trace.set_enabled false;
          let spans = Core.Trace.drain () in
          Core.Trace.write_json file spans;
          Printf.eprintf "trace: %d spans -> %s\n%!" (List.length spans) file)
        f

(* The flags every measuring subcommand shares. *)
type batch = {
  kernel : (module Core.Kernel.KERNEL);
  jobs : int option;
  trace : string option;
  fault : string option;
  keep_going : bool;
  tools : Core.Design.tool list option;
  store : string option;
}

(* One term for [--kernel/-j/--trace/--fault/-k]; [--tools] and [--store]
   are composed in only for the commands that take them. *)
let batch_term ?(tools = false) ?(store = false) () =
  let make kernel jobs trace fault keep_going tools store =
    { kernel; jobs; trace; fault; keep_going; tools; store }
  in
  Term.(
    const make $ kernel_opt $ jobs_opt $ trace_opt $ fault_opt
    $ keep_going_flag
    $ (if tools then tools_opt else const None)
    $ (if store then store_opt else const None))

(* The one path of every measuring subcommand.  The prologue arms the
   fault, attaches the store and checks that the tool restriction stays
   inside the kernel's inventory; [body]
   then runs traced, prints its artifact and returns the failures it
   kept going past.  A fail-fast [Flow.Error] ends the same way: the
   failure summary goes to stderr and the process exits 1, so sweep
   scripts cannot mistake a partial artifact for a complete one. *)
let run_batch b body =
  arm_fault b.fault;
  ignore (attach_store b.store);
  Option.iter
    (List.iter (fun t -> ignore (kernel_inventory b.kernel t)))
    b.tools;
  match
    try with_trace b.trace (fun () -> body b) with Core.Flow.Error e -> [ e ]
  with
  | [] -> ()
  | failures ->
      prerr_string (Core.Flow.render_failure_summary failures);
      exit 1

(* A count of zero would check nothing and still print a verdict. *)
let pos_int =
  conv
    (fun s ->
      match int_of_string_opt s with
      | Some n when n > 0 -> Ok n
      | _ -> Error (Printf.sprintf "expected a positive integer, got %S" s))
    string_of_int

let table1_cmd =
  let run () = print_string (Core.Table1.render ()) in
  Cmd.v (Cmd.info "table1" ~doc:"Print Table I (tools under evaluation).")
    Term.(const run $ const ())

let table2_cmd =
  let run b =
    run_batch b (fun { kernel; jobs; keep_going; tools; _ } ->
        let rows, failures =
          Core.Table2.compute ?jobs ~keep_going ?tools ~kernel ()
        in
        print_string (Core.Table2.render rows);
        failures)
  in
  Cmd.v
    (Cmd.info "table2"
       ~doc:"Measure every initial/optimized design and print Table II.")
    Term.(const run $ batch_term ~tools:true ~store:true ())

(* --tool (repeatable) and --tools (comma list) merge, first mention
   first, duplicates dropped. *)
let merge_tools repeated list_opt =
  match
    List.fold_left
      (fun acc t -> if List.mem t acc then acc else acc @ [ t ])
      [] (repeated @ Option.value list_opt ~default:[])
  with
  | [] -> None
  | ts -> Some ts

let fig1_cmd =
  let tool_rep =
    Arg.(value & opt_all tool_conv [] & info [ "tool" ] ~docv:"TOOL"
         ~doc:"Restrict to one tool (repeatable).")
  in
  let json =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"OUT"
          ~doc:
            "Also write the points (tool, label, area, throughput, fmax) as \
             JSON to $(docv), atomically — the machine-readable twin of the \
             ASCII scatter, consumed by DSE overlays and external plotting.")
  in
  let run b tool_rep json =
    run_batch { b with tools = merge_tools tool_rep b.tools }
      (fun { kernel; jobs; keep_going; tools; _ } ->
        let series, failures =
          Core.Fig1.compute ?jobs ~keep_going ?tools ~kernel ()
        in
        print_string (Core.Fig1.render ~kernel series);
        Option.iter
          (fun path ->
            Core.Fig1.write_json ~kernel path series;
            Printf.eprintf "fig1: wrote %s\n%!" path)
          json;
        failures)
  in
  Cmd.v
    (Cmd.info "fig1" ~doc:"Run the DSE sweeps and print the Fig. 1 scatter.")
    Term.(
      const run $ batch_term ~tools:true ~store:true () $ tool_rep $ json)

let comply_cmd =
  let blocks =
    Arg.(value & opt pos_int 500 & info [ "blocks" ] ~doc:"Blocks per condition (500 is about the statistical minimum).")
  in
  let run b blocks =
    run_batch b (fun { kernel; jobs; keep_going; _ } ->
        let spec = Core.Kernel.spec kernel in
        let designs =
          List.map (Core.Kernel.optimized kernel) (Core.Kernel.tools kernel)
        in
        (* The pass text names the procedure the kernel's spec runs: the
           IEEE 1180-1990 statistical test for the IDCT, bit-true against
           the golden reference for the extension kernels. *)
        let pass_text =
          if Core.Kernel.name kernel = "idct" then "IEEE 1180-1990 PASS"
          else "bit-true PASS"
        in
        let outcomes =
          Core.Evaluate.compliance_all ?jobs ~keep_going ~blocks ~spec designs
        in
        List.iter2
          (fun (d : Core.Design.t) r ->
            Printf.printf "%-12s optimized: %s\n%!"
              (Core.Design.tool_name d.Core.Design.tool)
              (match r with
              | Ok true -> pass_text
              | Ok false -> "FAIL"
              | Error _ -> "ERROR"))
          designs outcomes;
        Core.Evaluate.failures outcomes)
  in
  Cmd.v
    (Cmd.info "comply"
       ~doc:
         "Accuracy test of every optimized design (IEEE 1180-1990 for the \
          IDCT, bit-true for extension kernels).")
    Term.(const run $ batch_term () $ blocks)

let emit_cmd =
  let run (_, (d : Core.Design.t)) =
    print_string d.Core.Design.listing;
    print_newline ()
  in
  Cmd.v
    (Cmd.info "emit" ~doc:"Print a design's source listing.")
    Term.(const run $ design_term)

let verilog_cmd =
  let run (_, (d : Core.Design.t)) =
    match d.Core.Design.impl with
    | Core.Design.Stream c -> print_string (Hw.Verilog.emit (Core.Design.force c))
    | Core.Design.Pcie p ->
        print_string
          (Hw.Verilog.emit
             (Core.Design.force p.Core.Design.system).Maxj.Manager.kernel)
  in
  Cmd.v
    (Cmd.info "verilog"
       ~doc:"Emit the synthesized design as structural Verilog.")
    Term.(const run $ design_term)

let sim_cmd =
  let run (kernel, (d : Core.Design.t)) =
    let m = Core.Evaluate.measure ~spec:(Core.Kernel.spec kernel) d in
    Format.printf "%s %s (%s)@.  %a@.  Q = %.0f OPS/(LUT+FF)@."
      (Core.Design.tool_name d.Core.Design.tool) d.Core.Design.label
      d.Core.Design.config_desc Core.Metrics.pp_measured m
      (Core.Metrics.quality m)
  in
  Cmd.v
    (Cmd.info "sim" ~doc:"Simulate and synthesize one design; print metrics.")
    Term.(const run $ design_term)

let waves_cmd =
  let out =
    Arg.(value & opt string "waves.vcd" & info [ "o"; "output" ] ~doc:"Output VCD file.")
  in
  let cycles =
    Arg.(value & opt pos_int 64 & info [ "cycles" ] ~doc:"Cycles to record.")
  in
  let run (kernel, (d : Core.Design.t)) out cycles =
    match d.Core.Design.impl with
    | Core.Design.Pcie _ -> prerr_endline "MaxJ kernels: use the stream simulators"
    | Core.Design.Stream c ->
        let circuit = Core.Design.force c in
        let sim = Hw.Sim.create circuit in
        Hw.Sim.reset sim;
        (* drive one matrix of the kernel's own stimulus so the trace
           shows real activity *)
        let m =
          match (Core.Kernel.spec kernel).Core.Flow.stimulus 1 with
          | m :: _ -> m
          | [] -> Axis.Block.create ()
        in
        let w = Hw.Waves.create sim in
        let set = Hw.Sim.set_port sim ~lane:0 in
        let port = Hw.Sim.input_port sim in
        let s_valid = port Axis.Stream.s_valid
        and s_last = port Axis.Stream.s_last
        and s_data = Array.init 8 (fun l -> port (Axis.Stream.s_data l)) in
        Hw.Sim.set sim Axis.Stream.m_ready 1;
        for cyc = 0 to cycles - 1 do
          let beat = cyc mod 8 in
          set s_valid 1;
          set s_last (if beat = 7 then 1 else 0);
          for l = 0 to 7 do
            set s_data.(l) (Axis.Block.get m ~row:beat ~col:l)
          done;
          Hw.Waves.step w
        done;
        Hw.Waves.save w out;
        Printf.printf "wrote %d cycles of %s to %s\n" cycles
          circuit.Hw.Netlist.circuit_name out
  in
  Cmd.v
    (Cmd.info "waves" ~doc:"Record a VCD waveform of a design under stream traffic.")
    Term.(const run $ design_term $ out $ cycles)

let sweep_cmd =
  let run b tool =
    run_batch b (fun { kernel; jobs; keep_going; _ } ->
        let spec = Core.Kernel.spec kernel in
        let designs = (kernel_inventory kernel tool).Core.Kernel.inv_sweep in
        let outcomes =
          Core.Evaluate.measure_all ?jobs ~keep_going ~matrices:3 ~spec designs
        in
        List.iter2
          (fun (d : Core.Design.t) -> function
            | Ok (m : Core.Metrics.measured) ->
                Printf.printf "%-34s A=%7d  P=%8.2f MOPS  f=%7.2f MHz\n%!"
                  d.Core.Design.label m.Core.Metrics.area
                  m.Core.Metrics.throughput_mops m.Core.Metrics.fmax_mhz
            | Error _ -> ())
          designs outcomes;
        Core.Evaluate.failures outcomes)
  in
  Cmd.v
    (Cmd.info "sweep" ~doc:"Measure every configuration of one tool.")
    Term.(const run $ batch_term ~store:true () $ tool_pos)

let dse_cmd =
  let strategy_conv = conv Dse.Strategy.parse Dse.Strategy.to_string in
  let objective_conv =
    conv Dse.Engine.parse_objective Dse.Engine.objective_name
  in
  let strategy =
    Arg.(
      value
      & opt strategy_conv Dse.Strategy.Exhaustive
      & info [ "strategy" ] ~docv:"STRATEGY"
          ~doc:
            "Search strategy: $(b,exhaustive) (the full space, sweep \
             order), $(b,random) (a seeded permutation up to the budget) \
             or $(b,hillclimb) (seeded multi-restart neighborhood ascent \
             on the objective).")
  in
  let seed =
    Arg.(
      value & opt int 0
      & info [ "seed" ] ~docv:"N"
          ~doc:
            "PRNG seed for random/hillclimb.  The same seed gives a \
             bit-identical run — candidate sequence and frontier — for \
             any $(b,--jobs) count.")
  in
  let budget =
    Arg.(
      value
      & opt (some pos_int) None
      & info [ "budget" ] ~docv:"K"
          ~doc:
            "Evaluation budget: at most $(docv) distinct candidates are \
             measured (memoized revisits are free).  Default: the whole \
             space.")
  in
  let objective =
    Arg.(
      value
      & opt objective_conv Dse.Engine.Quality
      & info [ "objective" ] ~docv:"OBJ"
          ~doc:
            "Hillclimb objective: $(b,quality) (Q = P/A), $(b,throughput) \
             or $(b,area).")
  in
  let json =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"OUT"
          ~doc:"Write the run record (points, frontier, stats) to $(docv).")
  in
  let check_fig1 =
    Arg.(
      value & flag
      & info [ "check-fig1" ]
          ~doc:
            "Cross-check against Fig. 1: the frontier of the exhaustive \
             strategy over the paper's sweep space must reproduce exactly \
             the Pareto-optimal subset of the Fig. 1 point set.  Requires \
             $(b,--strategy exhaustive) and no $(b,--budget); exits \
             nonzero on a mismatch.")
  in
  let transfo_flag =
    Arg.(
      value & flag
      & info [ "transfo" ]
          ~doc:
            "Extend every selected tool's space with a \
             transformation-sequence axis: one extra chart enumerating \
             the initial design plus verified netlist-rewrite scripts \
             ($(b,strength_reduce), $(b,narrow) and their composition).  \
             Derived candidates are re-derived and equivalence-checked \
             when first measured.")
  in
  let run b strategy seed budget objective json check_fig1 transfo =
    run_batch b (fun { kernel; jobs; keep_going; tools; _ } ->
        if check_fig1 && (strategy <> Dse.Strategy.Exhaustive || budget <> None)
        then
          die
            "hlsvhc dse: --check-fig1 requires --strategy exhaustive and no \
             --budget (the check is over the full sweep space)";
        if check_fig1 && transfo then
          die
            "hlsvhc dse: --check-fig1 is over the paper's sweep space; it \
             cannot be combined with --transfo";
        let selected = Option.value tools ~default:(Core.Kernel.tools kernel) in
        let spaces = List.map (Dse.Space.of_tool ~kernel) selected in
        let spaces =
          if transfo then List.map Dse.Space.with_scripts spaces else spaces
        in
        let result =
          Dse.Engine.run ?jobs ~keep_going ?budget ~seed ~strategy ~objective
            spaces
        in
        print_string (Dse.Report.render result);
        Option.iter
          (fun path ->
            Dse.Report.write_json path result;
            Printf.eprintf "dse: wrote %s\n%!" path)
          json;
        if check_fig1 then begin
          match
            Dse.Report.crosscheck_fig1 ?jobs ~tools:selected ~kernel result
          with
          | Ok msg -> print_string (msg ^ "\n")
          | Error diff ->
              prerr_string diff;
              exit 1
        end;
        Core.Evaluate.failures
          (List.map
             (fun ev -> ev.Dse.Engine.ev_outcome)
             result.Dse.Engine.res_evaluated))
  in
  Cmd.v
    (Cmd.info "dse"
       ~doc:
         "Search the configuration space (exhaustive/random/hillclimb \
          under an evaluation budget) and print the explored cloud with \
          its Pareto frontier.")
    Term.(
      const run $ batch_term ~tools:true ~store:true () $ strategy $ seed
      $ budget $ objective $ json $ check_fig1 $ transfo_flag)

let transfo_cmd =
  let list_flag =
    Arg.(
      value & flag
      & info [ "list" ]
          ~doc:
            "List the transformation catalogue (names, aliases, \
             arguments, preconditions) and exit.")
  in
  let script_opt =
    Arg.(
      value
      & opt (some string) None
      & info [ "script" ] ~docv:"SCRIPT"
          ~doc:
            "Semicolon-separated transformation sequence, e.g. \
             $(b,\"retime 2; strength_reduce\").  Every step is verified \
             against its obligation and its result crosschecked against \
             the reference interpreter before the next one runs.")
  in
  let subject_opt =
    Arg.(
      value & opt string "row"
      & info [ "subject" ] ~docv:"SUBJECT"
          ~doc:
            "What to transform: $(b,row) (the bare IDCT row datapath, \
             combinational), $(b,arch) (the flat Chisel matrix \
             architecture, accepts the staging transformations), or \
             $(b,TOOL)[$(b,/optimized)] (a registered design's stream \
             netlist, e.g. $(b,chisel) or $(b,verilog/optimized)).")
  in
  let cycles_opt =
    Arg.(
      value & opt pos_int 256
      & info [ "cycles" ] ~docv:"N"
          ~doc:"Random-stimulus cycles per verification obligation.")
  in
  let seed_opt =
    Arg.(
      value & opt int 7
      & info [ "seed" ] ~docv:"N" ~doc:"Stimulus seed for the verifiers.")
  in
  let out_opt =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Write the transformed design as structural Verilog to $(docv).")
  in
  let parse_subject spec =
    match String.lowercase_ascii spec with
    | "row" ->
        Transfo.Subject.of_circuit
          (Chisel.Idct_gen.row_comb Chisel.Idct_gen.Inferred ~name:"row")
    | "arch" ->
        Transfo.Subject.of_arch
          (Chisel.Idct_gen.arch Chisel.Idct_gen.Inferred ~name:"chisel_arch"
             ())
    | spec -> (
        let tool_str, variant =
          match String.index_opt spec '/' with
          | None -> (spec, "initial")
          | Some i ->
              ( String.sub spec 0 i,
                String.sub spec (i + 1) (String.length spec - i - 1) )
        in
        let pick =
          match variant with
          | "optimized" | "opt" -> Core.Registry.optimized
          | "initial" -> Core.Registry.initial
          | _ ->
              die
                "hlsvhc transfo: unknown design variant %S (expected \
                 initial or optimized)"
                variant
        in
        match Core.Registry.parse_tool tool_str with
        | None ->
            die "hlsvhc transfo: %s; or use %s"
              (Core.Registry.unknown_tool_msg tool_str)
              "\"row\" / \"arch\""
        | Some t -> (
            match (pick t).Core.Design.impl with
            | Core.Design.Stream l ->
                Transfo.Subject.of_circuit (Core.Design.force l)
            | Core.Design.Pcie _ ->
                die
                  "hlsvhc transfo: %s is a PCIe system design; \
                   transformations operate on stream netlists"
                  (Core.Design.tool_name t)))
  in
  let run list_catalog script subject cycles seed out trace =
    if list_catalog then
      List.iter
        (fun (module T : Transfo.Catalog.TRANSFO) ->
          let aliases =
            match T.aliases with
            | [] -> ""
            | a -> " (aliases: " ^ String.concat ", " a ^ ")"
          in
          Printf.printf "%s%s%s\n    %s\n    precondition: %s\n" T.name
            (Transfo.Catalog.arg_doc T.arg)
            aliases T.description T.precondition)
        Transfo.Catalog.all
    else
      match script with
      | None ->
          die "hlsvhc transfo: nothing to do (use --script SCRIPT, or --list)"
      | Some src -> (
          let script =
            match Transfo.Script.parse src with
            | Ok s -> s
            | Error e -> die "hlsvhc transfo: --script: %s" e
          in
          let subject = parse_subject subject in
          match
            with_trace trace (fun () ->
                Transfo.Engine.run ~cycles ~seed script subject)
          with
          | Error e ->
              die
                ~code:
                  (match e with Transfo.Engine.Unknown_transfo _ -> 2 | _ -> 1)
                "hlsvhc transfo: %s"
                (Transfo.Engine.error_to_string e)
          | Ok r ->
              List.iter
                (fun (sr : Transfo.Engine.step_report) ->
                  Printf.printf "%-28s %6d -> %6d nodes  [%s] verified\n"
                    sr.Transfo.Engine.sr_step sr.Transfo.Engine.sr_nodes_before
                    sr.Transfo.Engine.sr_nodes_after
                    sr.Transfo.Engine.sr_obligation)
                r.Transfo.Engine.rep_steps;
              let subj = r.Transfo.Engine.rep_subject in
              let latency =
                if subj.Transfo.Subject.latency_added > 0 then
                  Printf.sprintf ", +%d cycles latency"
                    subj.Transfo.Subject.latency_added
                else ""
              in
              Printf.printf "result: %s (%d nodes%s)\n"
                subj.Transfo.Subject.circuit.Hw.Netlist.circuit_name
                (Hw.Netlist.num_nodes subj.Transfo.Subject.circuit)
                latency;
              Option.iter
                (fun path ->
                  Core.Trace.write_atomic path (fun oc ->
                      output_string oc
                        (Hw.Verilog.emit subj.Transfo.Subject.circuit));
                  Printf.eprintf "transfo: wrote %s\n%!" path)
                out)
  in
  Cmd.v
    (Cmd.info "transfo"
       ~doc:
         "Apply a scripted, equivalence-verified transformation sequence \
          to a design.")
    Term.(
      const run $ list_flag $ script_opt $ subject_opt $ cycles_opt
      $ seed_opt $ out_opt $ trace_opt)

let serve_cmd =
  let socket =
    Arg.(
      required
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:"Unix domain socket to listen on (created; unlinked on exit).")
  in
  let max_conns =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-conns" ] ~docv:"N"
          ~doc:
            "Drain after serving $(docv) connections (soak tests and \
             benchmarks); default: serve until a $(b,shutdown) request or \
             SIGTERM/SIGINT.")
  in
  let conn_workers =
    Arg.(
      value & opt int 4
      & info [ "conn-workers" ] ~docv:"N"
          ~doc:
            "Connection-handling worker domains: a slow client occupies one \
             of $(docv) slots, never the accept loop.")
  in
  let conn_timeout =
    Arg.(
      value & opt float 30.0
      & info [ "conn-timeout" ] ~docv:"SECONDS"
          ~doc:
            "Per-connection idle read/write deadline: a client that stays \
             silent (or stops reading) this long is answered nothing, \
             closed, and counted in the $(b,timeouts) stat.")
  in
  let batch_deadline =
    Arg.(
      value & opt float 120.0
      & info [ "batch-deadline" ] ~docv:"SECONDS"
          ~doc:
            "Wall-clock budget for receiving one whole batch — bounds a \
             client trickling bytes to dodge the idle deadline.")
  in
  let max_inflight =
    Arg.(
      value & opt int 16
      & info [ "max-inflight" ] ~docv:"N"
          ~doc:
            "Load shedding: beyond $(docv) accepted-but-unfinished \
             connections the daemon answers $(b,busy\\\\tretry-after\\\\tMS) \
             immediately instead of queueing unboundedly.")
  in
  let max_batch =
    Arg.(
      value & opt int 256
      & info [ "max-batch" ] ~docv:"N"
          ~doc:
            "Most request lines accepted in one batch; larger batches \
             answer a single $(b,bad) line.")
  in
  let run socket jobs store max_conns conn_workers conn_timeout batch_deadline
      max_inflight max_batch fault trace =
    arm_fault fault;
    let store_t = attach_store store in
    Printf.eprintf
      "hlsvhc serve: listening on %s (store: %s, jobs: %s, workers: %d, \
       conn-timeout: %.1fs, max-inflight: %d)\n\
       %!"
      socket
      (Option.fold ~none:"none" ~some:Store.dir store_t)
      (Option.fold ~none:"default" ~some:string_of_int jobs)
      conn_workers conn_timeout max_inflight;
    let counters =
      with_trace trace (fun () ->
          Serve.run
            {
              (Serve.default_config ~socket_path:socket) with
              jobs;
              store = store_t;
              max_conns;
              conn_workers;
              conn_timeout;
              batch_deadline;
              max_inflight;
              max_batch;
            })
    in
    Printf.eprintf
      "hlsvhc serve: done — %d connections, %d evals (%d errors, %d memo \
       hits, %d timeouts, %d shed, %d drops)\n\
       %!"
      (Atomic.get counters.Serve.conns)
      (Atomic.get counters.Serve.evals)
      (Atomic.get counters.Serve.eval_errors)
      (Atomic.get counters.Serve.memo_hits)
      (Atomic.get counters.Serve.conn_timeouts)
      (Atomic.get counters.Serve.shed)
      (Atomic.get counters.Serve.drops)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the evaluation daemon: accept batched evaluation requests \
          over a Unix socket on a bounded worker pool (per-connection \
          deadlines, load shedding, graceful drain on SIGTERM), fan each \
          batch onto the domain pool, answer with typed results, and (with \
          $(b,--store)) share one persistent warm cache across clients and \
          restarts.")
    Term.(
      const run $ socket $ jobs_opt $ store_opt $ max_conns $ conn_workers
      $ conn_timeout $ batch_deadline $ max_inflight $ max_batch $ fault_opt
      $ trace_opt)

(* The store janitor: fsck validates entries the way a read would and
   can delete the invalid ones; gc evicts deterministically under an
   entry/byte budget.  Both are safe against a live daemon — entries
   are atomic and re-healed on miss. *)
let store_dir_pos =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"DIR")

let store_fsck_cmd =
  let repair =
    Arg.(
      value & flag
      & info [ "repair" ]
          ~doc:
            "Delete every invalid entry (safe: readers re-measure and heal \
             on the next miss).")
  in
  let run dir repair =
    match Store.fsck ~repair dir with
    | Error e -> die "hlsvhc store fsck: %s" e
    | Ok r ->
        Printf.printf "%s: %d entries, %d valid, %d invalid\n" dir
          r.Store.fk_total r.Store.fk_valid
          (List.length r.Store.fk_invalid);
        List.iter
          (fun { Store.fi_file; fi_reason } ->
            Printf.printf "invalid: %s (%s)\n" fi_file fi_reason)
          r.Store.fk_invalid;
        if repair then
          Printf.printf "repaired: deleted %d invalid entries\n"
            r.Store.fk_repaired;
        if r.Store.fk_invalid <> [] && not repair then exit 1
  in
  Cmd.v
    (Cmd.info "fsck"
       ~doc:
         "Validate every entry of a result store (magic, schema version, \
          checksum, metrics parse, filename-addresses-key); exits nonzero \
          when invalid entries remain.")
    Term.(const run $ store_dir_pos $ repair)

let store_gc_cmd =
  let max_entries =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-entries" ] ~docv:"N"
          ~doc:"Keep at most $(docv) entries (the newest by mtime).")
  in
  let max_bytes =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-bytes" ] ~docv:"B"
          ~doc:"Keep at most $(docv) bytes of entries (the newest by mtime).")
  in
  let run dir max_entries max_bytes =
    match Store.gc ?max_entries ?max_bytes dir with
    | Error e -> die "hlsvhc store gc: %s" e
    | Ok r ->
        Printf.printf
          "%s: kept %d of %d entries (%d -> %d bytes), deleted %d\n" dir
          r.Store.gr_kept r.Store.gr_total r.Store.gr_bytes_before
          r.Store.gr_bytes_after r.Store.gr_deleted
  in
  Cmd.v
    (Cmd.info "gc"
       ~doc:
         "Evict store entries oldest-mtime-first (ties by filename — \
          deterministic) down to an entry and/or byte budget.  Safe under \
          a live daemon: evicted entries re-heal on the next miss.")
    Term.(const run $ store_dir_pos $ max_entries $ max_bytes)

let store_cmd =
  Cmd.group
    (Cmd.info "store"
       ~doc:
         "Janitor commands for a persistent result store directory \
          ($(b,fsck), $(b,gc)).")
    [ store_fsck_cmd; store_gc_cmd ]

let stats_cmd =
  let file =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"TRACE.json")
  in
  let run file =
    match Core.Trace.render_stats file with
    | s -> print_string s
    | exception Sys_error e -> die ~code:1 "hlsvhc stats: %s" e
    | exception Failure e ->
        die ~code:1 "hlsvhc stats: cannot parse %s: %s" file e
    | exception e ->
        die ~code:1 "hlsvhc stats: unexpected error reading %s: %s" file
          (Printexc.to_string e)
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Summarize a trace recorded with --trace: per-stage wall-time \
          breakdown and counter totals.")
    Term.(const run $ file)

let main =
  Cmd.group
    (Cmd.info "hlsvhc" ~version:"1.0"
       ~doc:
         "Reproduction of 'High-Level Synthesis versus Hardware \
          Construction' (DATE 2023).")
    [ table1_cmd; table2_cmd; fig1_cmd; comply_cmd; dse_cmd; emit_cmd;
      verilog_cmd; sim_cmd; sweep_cmd; transfo_cmd; serve_cmd; store_cmd;
      waves_cmd; stats_cmd ]

(* An output path that cannot be written is the caller's to fix, not an
   internal error: name the path and the reason, and exit as on bad
   usage.  A failed [--trace] write surfaces from [with_trace]'s
   [finally], wrapped.  Any other exception is reported as Cmdliner
   reports one. *)
let () =
  match Cmd.eval ~catch:false main with
  | code -> exit code
  | exception
      ( Core.Trace.Write_error { wr_path; wr_reason }
      | Fun.Finally_raised (Core.Trace.Write_error { wr_path; wr_reason }) ) ->
      Printf.eprintf "hlsvhc: cannot write %s: %s\n" wr_path wr_reason;
      exit 2
  | exception e ->
      Printf.eprintf "hlsvhc: internal error, uncaught exception:\n%s\n"
        (Printexc.to_string e);
      exit Cmd.Exit.internal_error
