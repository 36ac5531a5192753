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
  controllability : float;
  flexibility : float;
}

let compute_row ~kernel ~spec verilog_initial_loc verilog_best_q tool =
  let col d =
    let m = Evaluate.measure ~spec d in
    {
      design = d;
      measured = m;
      loc = Design.loc d;
      alpha =
        Metrics.automation ~verilog_loc:verilog_initial_loc ~loc:(Design.loc d);
      quality = Metrics.quality m;
    }
  in
  let initial = col (Kernel.initial kernel tool) in
  let optimized = col (Kernel.optimized kernel tool) in
  let delta_l = Kernel.delta_loc kernel tool in
  {
    tool;
    initial;
    optimized;
    delta_l;
    controllability =
      Metrics.controllability ~best:optimized.quality
        ~verilog_best:verilog_best_q;
    flexibility =
      Metrics.flexibility ~best:optimized.quality ~initial:initial.quality
        ~delta_loc:delta_l;
  }

(* One memoized table per kernel; all access is from the caller's
   domain (the fan-out happens inside measure_all), so a plain table
   suffices, as the single ref did before. *)
let computed : (string, row list) Hashtbl.t = Hashtbl.create 4

let compute ?jobs ?keep_going ?tools ?(kernel = Kernel.idct) () =
  let spec = Kernel.spec kernel in
  let kernel_tools = Kernel.tools kernel in
  (* The first registered tool anchors the relative indicators — Verilog
     for the paper's IDCT, the construction eDSL for the extension
     kernels. *)
  let anchor = List.hd kernel_tools in
  let selected =
    match tools with
    | None -> kernel_tools
    | Some ts -> List.filter (fun t -> List.mem t ts) kernel_tools
  in
  let restrict rows =
    List.filter (fun r -> List.mem r.tool selected) rows
  in
  match Hashtbl.find_opt computed (Kernel.name kernel) with
  | Some rows -> (restrict rows, [])
  | None ->
      (* Warm the measurement cache over every initial/optimized design on
         the domain pool; the sequential row construction below then reads
         measurements back from the cache.  Under keep-going one failed
         design costs its own tool's column pair, not the table.  A
         [--tools] restriction still warms the anchor pair: alpha and C_Q
         are normalized against it. *)
      let warm_tools =
        if List.mem anchor selected then selected else anchor :: selected
      in
      let warm =
        List.concat_map
          (fun t ->
            [ (t, Kernel.initial kernel t); (t, Kernel.optimized kernel t) ])
          warm_tools
      in
      let outcomes =
        Evaluate.measure_all ?jobs ?keep_going ~spec (List.map snd warm)
      in
      let failures = Evaluate.failures outcomes in
      let tool_ok tool =
        List.for_all2
          (fun (t, _) r -> t <> tool || Result.is_ok r)
          warm outcomes
      in
      let rows =
        if not (tool_ok anchor) then
          (* Every indicator is normalized against the anchor columns
             (alpha, C_Q); without them there is no table to assemble. *)
          []
        else begin
          let v_init = Kernel.initial kernel anchor in
          let v_opt = Kernel.optimized kernel anchor in
          (* The paper normalizes alpha by the Verilog LOC of the matching
             configuration; we use the initial anchor LOC for the initial
             columns and the optimized anchor LOC for the optimized ones.
             The anchor optimum anchors C_Q at 100%. *)
          let v_best_q = Metrics.quality (Evaluate.measure ~spec v_opt) in
          List.filter_map
            (fun tool ->
              if not (tool_ok tool) then None
              else
                let r =
                  compute_row ~kernel ~spec (Design.loc v_init) v_best_q tool
                in
                (* optimized-column alpha is against the optimized anchor *)
                let opt_alpha =
                  Metrics.automation ~verilog_loc:(Design.loc v_opt)
                    ~loc:r.optimized.loc
                in
                Some
                  { r with optimized = { r.optimized with alpha = opt_alpha } })
            selected
        end
      in
      (* Only a complete, fault-free table enters the cache. *)
      if failures = [] && tools = None then
        Hashtbl.replace computed (Kernel.name kernel) rows;
      (rows, failures)

let render rows =
  let buf = Buffer.create 4096 in
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let header =
    List.map
      (fun r ->
        Printf.sprintf "%s/%s" (Design.language_name r.tool)
          (Design.tool_name r.tool))
      rows
  in
  pr "%-24s" "indicator";
  List.iter (fun h -> pr " | %-22s" h) header;
  pr "\n%s\n" (String.make (24 + (25 * List.length rows)) '-');
  let line name f =
    pr "%-24s" name;
    List.iter (fun r -> pr " | %-22s" (f r)) rows;
    pr "\n"
  in
  let pair fi fo r = Printf.sprintf "%s / %s" (fi r) (fo r) in
  line "LOC (initial/opt)"
    (pair (fun r -> string_of_int r.initial.loc)
       (fun r -> string_of_int r.optimized.loc));
  line "Modification dL" (fun r -> string_of_int r.delta_l);
  line "Automation alpha"
    (pair (fun r -> Printf.sprintf "%.1f%%" r.initial.alpha)
       (fun r -> Printf.sprintf "%.1f%%" r.optimized.alpha));
  line "Quality Q = P/A"
    (pair (fun r -> Printf.sprintf "%.0f" r.initial.quality)
       (fun r -> Printf.sprintf "%.0f" r.optimized.quality));
  line "Controllability C_Q" (fun r -> Printf.sprintf "%.1f%%" r.controllability);
  line "Flexibility F_Q" (fun r -> Printf.sprintf "%.1f" r.flexibility);
  line "Frequency, MHz"
    (pair (fun r -> Printf.sprintf "%.2f" r.initial.measured.Metrics.fmax_mhz)
       (fun r -> Printf.sprintf "%.2f" r.optimized.measured.Metrics.fmax_mhz));
  line "Throughput, MOPS"
    (pair
       (fun r -> Printf.sprintf "%.2f" r.initial.measured.Metrics.throughput_mops)
       (fun r -> Printf.sprintf "%.2f" r.optimized.measured.Metrics.throughput_mops));
  line "Latency, cycles"
    (pair (fun r -> string_of_int r.initial.measured.Metrics.latency)
       (fun r -> string_of_int r.optimized.measured.Metrics.latency));
  line "Periodicity, cycles"
    (pair (fun r -> string_of_int r.initial.measured.Metrics.periodicity)
       (fun r -> string_of_int r.optimized.measured.Metrics.periodicity));
  line "Area A = LUT*+FF*"
    (pair (fun r -> string_of_int r.initial.measured.Metrics.area)
       (fun r -> string_of_int r.optimized.measured.Metrics.area));
  line "N*_LUT (maxdsp=0)"
    (pair (fun r -> string_of_int r.initial.measured.Metrics.luts_nodsp)
       (fun r -> string_of_int r.optimized.measured.Metrics.luts_nodsp));
  line "N*_FF (maxdsp=0)"
    (pair (fun r -> string_of_int r.initial.measured.Metrics.ffs_nodsp)
       (fun r -> string_of_int r.optimized.measured.Metrics.ffs_nodsp));
  line "N_LUT"
    (pair (fun r -> string_of_int r.initial.measured.Metrics.luts)
       (fun r -> string_of_int r.optimized.measured.Metrics.luts));
  line "N_FF"
    (pair (fun r -> string_of_int r.initial.measured.Metrics.ffs)
       (fun r -> string_of_int r.optimized.measured.Metrics.ffs));
  line "N_DSP"
    (pair (fun r -> string_of_int r.initial.measured.Metrics.dsps)
       (fun r -> string_of_int r.optimized.measured.Metrics.dsps));
  line "N_IO"
    (pair (fun r -> string_of_int r.initial.measured.Metrics.ios)
       (fun r -> string_of_int r.optimized.measured.Metrics.ios));
  Buffer.contents buf
