type point = {
  label : string;
  area : int;
  throughput_mops : float;
  fmax_mhz : float;
}

type series = { tool : Design.tool; points : point list }

(* Series cache, shared across domains once [compute] fans out: every
   access goes through [cache_lock].  Keyed by (kernel, tool): each
   kernel's series are cached independently. *)
let cache : (string * Design.tool, series) Hashtbl.t = Hashtbl.create 8
let cache_lock = Mutex.create ()

let cache_find kname tool =
  Mutex.protect cache_lock (fun () -> Hashtbl.find_opt cache (kname, tool))

let cache_store kname tool s =
  Mutex.protect cache_lock (fun () -> Hashtbl.replace cache (kname, tool) s)

let clear_cache () = Mutex.protect cache_lock (fun () -> Hashtbl.reset cache)

let point_of (d : Design.t) (m : Metrics.measured) =
  {
    label = d.Design.label;
    area = m.Metrics.area;
    throughput_mops = m.Metrics.throughput_mops;
    fmax_mhz = m.Metrics.fmax_mhz;
  }

(* One flat work list across every uncached tool — ~100 independent
   measurements for the full figure — mapped over the domain pool in one
   batch so a tool with few configurations does not leave domains idle.
   [Parallel.map] preserves input order, so regrouping by sweep length
   reassembles each tool's series exactly as the sequential path built
   them. *)
let compute_outcomes ?jobs ?tools ?(kernel = Kernel.idct) ~keep_going () =
  let spec = Kernel.spec kernel in
  let kname = Kernel.name kernel in
  let tools =
    match tools with Some ts -> ts | None -> Kernel.tools kernel
  in
  let missing = List.filter (fun t -> cache_find kname t = None) tools in
  let sweeps = List.map (fun t -> (t, Kernel.sweep kernel t)) missing in
  let designs = List.concat_map snd sweeps in
  (* Fail-fast measures on [Parallel.map] (first failure aborts the
     batch, byte-identical to the historical path); keep-going measures
     on [Parallel.map_result] so every surviving point is kept and each
     failed point records its typed error. *)
  let outcomes =
    if keep_going then
      Evaluate.measure_all_result ?jobs ~matrices:3 ~spec designs
    else
      List.map
        (fun m -> Ok m)
        (Evaluate.measure_all ?jobs ~matrices:3 ~spec designs)
  in
  let failures = ref [] in
  let rec regroup sweeps outcomes acc =
    match sweeps with
    | [] -> List.rev acc
    | (tool, sweep) :: rest ->
        let rec take k acc = function
          | ms when k = 0 -> (List.rev acc, ms)
          | m :: ms -> take (k - 1) (m :: acc) ms
          | [] -> assert false
        in
        let ms, outcomes = take (List.length sweep) [] outcomes in
        let points =
          List.concat
            (List.map2
               (fun d -> function
                 | Ok m -> [ point_of d m ]
                 | Error (err : Flow.error) ->
                     failures := err :: !failures;
                     [])
               sweep ms)
        in
        let s = { tool; points } in
        (* Only complete series enter the cache: a series missing failed
           points must not shadow a later fault-free run. *)
        if List.length points = List.length sweep then cache_store kname tool s;
        regroup rest outcomes ((tool, s) :: acc)
  in
  let fresh = regroup sweeps outcomes [] in
  let series =
    List.map
      (fun t ->
        match List.assoc_opt t fresh with
        | Some s -> s
        | None -> (
            match cache_find kname t with Some s -> s | None -> assert false))
      tools
  in
  (series, List.rev !failures)

let compute ?jobs ?tools ?kernel () =
  fst (compute_outcomes ?jobs ?tools ?kernel ~keep_going:false ())

let compute_result ?jobs ?tools ?kernel () =
  compute_outcomes ?jobs ?tools ?kernel ~keep_going:true ()

let points ?jobs ?tools ?kernel () =
  List.concat_map
    (fun s -> List.map (fun p -> (s.tool, p)) s.points)
    (compute ?jobs ?tools ?kernel ())

(* Machine-readable Fig. 1: the same point set as the ASCII scatter, one
   JSON object per series, written temp-file + rename so readers never
   observe a truncation. *)
let write_json ?(kernel = Kernel.idct) path series =
  Trace.write_atomic path (fun oc ->
      output_string oc "{\n  \"artifact\": \"fig1\",\n";
      (* the default kernel's JSON stays byte-identical to the pre-kernel
         artifact; other kernels name themselves *)
      if Kernel.name kernel <> "idct" then
        Printf.fprintf oc "  \"kernel\": \"%s\",\n"
          (Trace.json_escape (Kernel.name kernel));
      output_string oc "  \"series\": [\n";
      List.iteri
        (fun i s ->
          Printf.fprintf oc
            "    {\"tool\": \"%s\", \"language\": \"%s\", \"points\": [\n"
            (Trace.json_escape (Design.tool_name s.tool))
            (Trace.json_escape (Design.language_name s.tool));
          List.iteri
            (fun j p ->
              Printf.fprintf oc
                "      {\"label\": \"%s\", \"area\": %d, \
                 \"throughput_mops\": %.6f, \"fmax_mhz\": %.6f}%s\n"
                (Trace.json_escape p.label)
                p.area p.throughput_mops p.fmax_mhz
                (if j = List.length s.points - 1 then "" else ","))
            s.points;
          Printf.fprintf oc "    ]}%s\n"
            (if i = List.length series - 1 then "" else ","))
        series;
      output_string oc "  ]\n}\n")

(* The scatter glyph lives on the TOOL module, next to the rest of each
   flow's registration. *)
let glyph = Registry.glyph

let render_series ?(kernel = Kernel.idct) series =
  let buf = Buffer.create 4096 in
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  (* Data listing. *)
  List.iter
    (fun s ->
      pr "%s (%s, %d configurations):\n"
        (Design.language_name s.tool)
        (Design.tool_name s.tool)
        (List.length s.points);
      List.iter
        (fun p ->
          pr "  %-34s A=%7d  P=%8.2f MOPS  f=%7.2f MHz\n" p.label p.area
            p.throughput_mops p.fmax_mhz)
        s.points)
    series;
  (* ASCII scatter, log10 axes. *)
  let all = List.concat_map (fun s -> s.points) series in
  let lx p = log10 (float_of_int (max 1 p.area)) in
  let ly p = log10 (Float.max 0.01 p.throughput_mops) in
  let min_x = List.fold_left (fun a p -> Float.min a (lx p)) infinity all in
  let max_x = List.fold_left (fun a p -> Float.max a (lx p)) neg_infinity all in
  let min_y = List.fold_left (fun a p -> Float.min a (ly p)) infinity all in
  let max_y = List.fold_left (fun a p -> Float.max a (ly p)) neg_infinity all in
  let w = 72 and h = 24 in
  let grid = Array.make_matrix h w ' ' in
  List.iter
    (fun s ->
      List.iter
        (fun p ->
          let x =
            int_of_float
              ((lx p -. min_x) /. Float.max 1e-9 (max_x -. min_x)
              *. float_of_int (w - 1))
          in
          let y =
            int_of_float
              ((ly p -. min_y) /. Float.max 1e-9 (max_y -. min_y)
              *. float_of_int (h - 1))
          in
          grid.(h - 1 - y).(x) <- glyph s.tool)
        s.points)
    series;
  pr "%s" (Kernel.caption kernel);
  pr "%s" (Kernel.legend_line kernel);
  for r = 0 to h - 1 do
    pr "|%s|\n" (String.init w (fun c -> grid.(r).(c)))
  done;
  pr "%s\n" (String.make (w + 2) '-');
  pr "area: %.0f .. %.0f   throughput: %.2f .. %.2f MOPS\n"
    (10. ** min_x) (10. ** max_x) (10. ** min_y) (10. ** max_y);
  Buffer.contents buf

let render ?jobs ?tools ?kernel () =
  render_series ?kernel (compute ?jobs ?tools ?kernel ())

let render_result ?jobs ?tools ?kernel () =
  let series, failures = compute_result ?jobs ?tools ?kernel () in
  (render_series ?kernel series, failures)
