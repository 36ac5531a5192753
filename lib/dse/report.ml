let pr buf fmt = Printf.ksprintf (Buffer.add_string buf) fmt

(* The same log-log projection as the Fig. 1 scatter, so the explored
   cloud and the paper's figure line up visually; frontier points are
   drawn last, as '*'. *)
let render_scatter buf kernel (cloud : (Pareto.point * char) list) frontier =
  let lx (p : Pareto.point) = log10 (float_of_int (max 1 p.Pareto.pt_area)) in
  let ly (p : Pareto.point) = log10 (Float.max 0.01 p.Pareto.pt_perf) in
  let pts = List.map fst cloud in
  let min_x = List.fold_left (fun a p -> Float.min a (lx p)) infinity pts in
  let max_x = List.fold_left (fun a p -> Float.max a (lx p)) neg_infinity pts in
  let min_y = List.fold_left (fun a p -> Float.min a (ly p)) infinity pts in
  let max_y = List.fold_left (fun a p -> Float.max a (ly p)) neg_infinity pts in
  let w = 72 and h = 24 in
  let grid = Array.make_matrix h w ' ' in
  let plot (p, glyph) =
    let x =
      int_of_float
        ((lx p -. min_x) /. Float.max 1e-9 (max_x -. min_x) *. float_of_int (w - 1))
    in
    let y =
      int_of_float
        ((ly p -. min_y) /. Float.max 1e-9 (max_y -. min_y) *. float_of_int (h - 1))
    in
    grid.(h - 1 - y).(x) <- glyph
  in
  List.iter plot cloud;
  List.iter (fun p -> plot (p, '*')) frontier;
  (* Axis caption and legend come from the kernel, like Fig. 1's; the
     frontier glyph is the report's own addition. *)
  pr buf "%s" (Core.Kernel.caption kernel);
  pr buf "%s  *=Pareto frontier\n"
    (String.trim (Core.Kernel.legend_line kernel));
  for r = 0 to h - 1 do
    pr buf "|%s|\n" (String.init w (fun c -> grid.(r).(c)))
  done;
  pr buf "%s\n" (String.make (w + 2) '-');
  pr buf "area: %.0f .. %.0f   throughput: %.2f .. %.2f MOPS\n"
    (10. ** min_x) (10. ** max_x) (10. ** min_y) (10. ** max_y)

(* The kernel the run explored, from its spaces.  Default-kernel (idct)
   reports carry no tag, keeping the baseline report byte-identical. *)
let kernel_tag (r : Engine.result) =
  match r.Engine.res_spaces with
  | { Space.spec = { Core.Flow.spec_name; _ }; _ } :: _
    when spec_name <> "idct" ->
      Printf.sprintf " kernel=%s" spec_name
  | _ -> ""

let render (r : Engine.result) =
  let buf = Buffer.create 4096 in
  pr buf "DSE: strategy=%s seed=%d budget=%s objective=%s%s\n"
    (Strategy.to_string r.Engine.res_strategy)
    r.Engine.res_seed
    (match r.Engine.res_budget with Some b -> string_of_int b | None -> "none")
    (Engine.objective_name r.Engine.res_objective)
    (kernel_tag r);
  pr buf "\nSearched spaces:\n";
  List.iter (fun s -> Buffer.add_string buf (Space.describe s)) r.Engine.res_spaces;
  (* per-tool explored counts *)
  pr buf "\nExplored:\n";
  List.iter
    (fun s ->
      let tool = s.Space.tool in
      let n =
        List.length
          (List.filter
             (fun (ev : Engine.evaluated) ->
               ev.Engine.ev_candidate.Space.cand_tool = tool)
             r.Engine.res_evaluated)
      in
      pr buf "  %-12s %3d of %3d candidates\n"
        (Core.Design.tool_name tool) n (Space.size s))
    r.Engine.res_spaces;
  let cloud =
    List.filter_map
      (fun (ev : Engine.evaluated) ->
        match ev.Engine.ev_outcome with
        | Ok m ->
            Some
              ( Engine.point_of ev.Engine.ev_candidate m,
                Core.Registry.glyph ev.Engine.ev_candidate.Space.cand_tool )
        | Error _ -> None)
      r.Engine.res_evaluated
  in
  let kernel =
    let name =
      match r.Engine.res_spaces with
      | { Space.spec = { Core.Flow.spec_name; _ }; _ } :: _ -> spec_name
      | [] -> "idct"
    in
    Option.value (Core.Kernel.find name) ~default:Core.Kernel.idct
  in
  if cloud <> [] then render_scatter buf kernel cloud r.Engine.res_frontier;
  pr buf "\nPareto frontier (area asc):\n";
  List.iter
    (fun (p : Pareto.point) ->
      pr buf "  %-44s A=%7d  P=%8.2f MOPS\n" p.Pareto.pt_key p.Pareto.pt_area
        p.Pareto.pt_perf)
    r.Engine.res_frontier;
  let s = r.Engine.res_stats in
  pr buf
    "\nevaluated %d of %d candidates in %d rounds (%d cache hits, %d \
     failures); %s\n"
    s.Engine.st_evaluated s.Engine.st_space s.Engine.st_rounds
    s.Engine.st_cache_hits s.Engine.st_failures
    (Pareto.summary (List.map fst cloud));
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* JSON                                                                 *)
(* ------------------------------------------------------------------ *)

let write_json path (r : Engine.result) =
  let esc = Core.Trace.json_escape in
  let on_frontier =
    let keys =
      List.map (fun (p : Pareto.point) -> p.Pareto.pt_key) r.Engine.res_frontier
    in
    fun k -> List.mem k keys
  in
  Core.Trace.write_atomic path (fun oc ->
      Printf.fprintf oc
        "{\n\
        \  \"artifact\": \"dse\",\n\
        \  \"strategy\": \"%s\",\n\
        \  \"seed\": %d,\n\
        \  \"budget\": %s,\n\
        \  \"objective\": \"%s\",\n"
        (Strategy.to_string r.Engine.res_strategy)
        r.Engine.res_seed
        (match r.Engine.res_budget with Some b -> string_of_int b | None -> "null")
        (Engine.objective_name r.Engine.res_objective);
      (match r.Engine.res_spaces with
      | { Space.spec = { Core.Flow.spec_name; _ }; _ } :: _
        when spec_name <> "idct" ->
          Printf.fprintf oc "  \"kernel\": \"%s\",\n" spec_name
      | _ -> ());
      let s = r.Engine.res_stats in
      Printf.fprintf oc
        "  \"stats\": {\"space\": %d, \"evaluated\": %d, \"cache_hits\": %d, \
         \"rounds\": %d, \"failures\": %d, \"frontier_size\": %d},\n"
        s.Engine.st_space s.Engine.st_evaluated s.Engine.st_cache_hits
        s.Engine.st_rounds s.Engine.st_failures s.Engine.st_frontier;
      output_string oc "  \"points\": [\n";
      let n = List.length r.Engine.res_evaluated in
      List.iteri
        (fun i (ev : Engine.evaluated) ->
          let key = Space.key ev.Engine.ev_candidate in
          (match ev.Engine.ev_outcome with
          | Ok m ->
              Printf.fprintf oc
                "    {\"key\": \"%s\", \"tool\": \"%s\", \"label\": \"%s\", \
                 \"coords\": \"%s\", \"area\": %d, \"throughput_mops\": %.6f, \
                 \"fmax_mhz\": %.6f, \"on_frontier\": %b}"
                (esc key)
                (esc
                   (Core.Design.tool_name ev.Engine.ev_candidate.Space.cand_tool))
                (esc ev.Engine.ev_candidate.Space.cand_design.Core.Design.label)
                (esc (Space.coords_desc ev.Engine.ev_candidate))
                m.Core.Metrics.area m.Core.Metrics.throughput_mops
                m.Core.Metrics.fmax_mhz (on_frontier key)
          | Error e ->
              Printf.fprintf oc
                "    {\"key\": \"%s\", \"error\": \"%s\", \"stage\": \"%s\"}"
                (esc key)
                (esc (Core.Flow.class_name e.Core.Flow.err_class))
                (esc e.Core.Flow.err_stage));
          output_string oc (if i = n - 1 then "\n" else ",\n"))
        r.Engine.res_evaluated;
      output_string oc "  ]\n}\n")

(* ------------------------------------------------------------------ *)
(* Fig. 1 cross-check                                                   *)
(* ------------------------------------------------------------------ *)

let crosscheck_fig1 ?jobs ?tools ?kernel (r : Engine.result) =
  let fig1_cloud =
    List.map
      (fun (tool, (p : Core.Fig1.point)) ->
        {
          Pareto.pt_key = Core.Design.tool_name tool ^ "/" ^ p.Core.Fig1.label;
          pt_area = p.Core.Fig1.area;
          pt_perf = p.Core.Fig1.throughput_mops;
        })
      (Core.Fig1.points ?jobs ?tools ?kernel ())
  in
  let expected = Pareto.frontier fig1_cloud in
  let got = r.Engine.res_frontier in
  if got = expected then
    Ok
      (Printf.sprintf
         "fig1 cross-check: PASS — %d frontier points of %d sweep points \
          match Fig. 1's Pareto-optimal subset point for point"
         (List.length expected) (List.length fig1_cloud))
  else
    let describe (p : Pareto.point) =
      Printf.sprintf "%s A=%d P=%.2f" p.Pareto.pt_key p.Pareto.pt_area
        p.Pareto.pt_perf
    in
    let missing =
      List.filter (fun p -> not (List.mem p got)) expected
    and extra = List.filter (fun p -> not (List.mem p expected)) got in
    let buf = Buffer.create 256 in
    pr buf "fig1 cross-check: FAIL (%d expected, %d got)\n"
      (List.length expected) (List.length got);
    List.iter (fun p -> pr buf "  missing: %s\n" (describe p)) missing;
    List.iter (fun p -> pr buf "  extra:   %s\n" (describe p)) extra;
    Error (Buffer.contents buf)
