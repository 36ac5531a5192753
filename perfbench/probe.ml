(* Traced layer probe of the benchmark.

   Drives one workload through the public functions of each layer and
   times every call from here, so the numbers need no instrumentation
   inside lib/ or bin/.  Each mode prints one flat JSON object of
   per-layer figures on stdout:

     probe fig1 JOBS                the Fig. 1 sweep, stage by stage
     probe fig1-plain JOBS          the library's own Fig. 1 sweep, timed
                                    as a whole: the untraced base
     probe comply JOBS BLOCKS       IEEE 1180 compliance of the 7 designs
     probe serve SOCKET STORE JOBS WORKERS
                                    Serve.run hosted in this process over
                                    a timed store backend; prints when the
                                    daemon has drained *)

let now = Unix.gettimeofday

(* Figures accumulated across pool domains. *)
let figures : (string, float) Hashtbl.t = Hashtbl.create 64
let figures_lock = Mutex.create ()

let add key v =
  Mutex.protect figures_lock (fun () ->
      let old = Option.value ~default:0. (Hashtbl.find_opt figures key) in
      Hashtbl.replace figures key (old +. v))

let set key v = Mutex.protect figures_lock (fun () -> Hashtbl.replace figures key v)
let get key = Option.value ~default:0. (Hashtbl.find_opt figures key)

let timed key f =
  let t0 = now () in
  let r = f () in
  add key (now () -. t0);
  r

let print_figures () =
  let items =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) figures []
    |> List.sort compare
    |> List.map (fun (k, v) -> Printf.sprintf "%S: %.17g" k v)
  in
  print_string ("{" ^ String.concat ", " items ^ "}\n")

let tool_key = function
  | Core.Design.Verilog -> "verilog"
  | Chisel -> "chisel"
  | Bsv -> "bsv"
  | Dslx -> "dslx"
  | Maxj -> "maxj"
  | Bambu -> "bambu"
  | Vivado_hls -> "vivado_hls"

(* Wrap a design's lazy build so that [Core.Design.force] on the wrapper
   reports how long the caller waited for the force lock (call to build
   start) apart from the build itself.  [arm] stamps the call time; each
   wrapper is forced by exactly one job. *)
let wrap_lazy ~tool l =
  let called = Atomic.make 0. in
  let cell =
    lazy
      (let t0 = now () in
       add "elaborate.lock_wait_s" (t0 -. Atomic.get called);
       (* the force lock is held here, as for every registry build *)
       let v = Lazy.force l in
       add ("elaborate." ^ tool ^ "_s") (now () -. t0);
       v)
  in
  ((fun () -> Atomic.set called (now ())), cell)

let wrap (d : Core.Design.t) =
  let tool = tool_key d.Core.Design.tool in
  match d.Core.Design.impl with
  | Core.Design.Stream l ->
      let arm, cell = wrap_lazy ~tool l in
      (arm, { d with impl = Core.Design.Stream cell })
  | Core.Design.Pcie p ->
      let arm, cell = wrap_lazy ~tool p.Core.Design.system in
      (arm, { d with impl = Core.Design.Pcie { p with system = cell } })

(* [Core.Parallel.map] with every job timed from the outside: the wait
   from the call to the job's start (reported as the mean over jobs), its
   busy time, and the domain that ran it. *)
let pool_map ~jobs f xs =
  let t_call = now () in
  let timed_jobs =
    Core.Parallel.map ~jobs
      (fun x ->
        let t0 = now () in
        let r = f x in
        (r, (Domain.self () :> int), t0 -. t_call, now () -. t0))
      xs
  in
  let wall = now () -. t_call in
  let per_domain = Hashtbl.create 4 in
  List.iter
    (fun (_, dom, wait, busy) ->
      add "pool.queue_wait_s" wait;
      add "pool.busy_s" busy;
      Hashtbl.replace per_domain dom
        (busy +. Option.value ~default:0. (Hashtbl.find_opt per_domain dom)))
    timed_jobs;
  let n = float_of_int (List.length xs) in
  set "pool.jobs" n;
  set "pool.queue_wait_s" (get "pool.queue_wait_s" /. n);
  set "pool.critical_s" (Hashtbl.fold (fun _ b m -> Float.max b m) per_domain 0.);
  set "pool.busy_ratio" (get "pool.busy_s" /. (float_of_int jobs *. wall));
  (List.map (fun (r, _, _, _) -> r) timed_jobs, wall)

let gc_delta f =
  let g0 = Gc.quick_stat () in
  let r = f () in
  let g1 = Gc.quick_stat () in
  set "gc.minor_collections"
    (float_of_int (g1.Gc.minor_collections - g0.Gc.minor_collections));
  set "gc.major_collections"
    (float_of_int (g1.Gc.major_collections - g0.Gc.major_collections));
  set "gc.minor_words" (g1.Gc.minor_words -. g0.Gc.minor_words);
  r

(* ---------------- fig1: the flow, stage by stage ---------------- *)

let bit_true ~(spec : Core.Flow.spec) ~got mats =
  let expected = List.map spec.Core.Flow.reference mats in
  List.length got = List.length expected
  && List.for_all2 Axis.Block.equal got expected

(* One Fig. 1 point through elaborate -> validate -> simulate -> verify ->
   synthesize, as [Core.Flow.measure_uncached] runs it (without fault
   injection and the interpreter retry). *)
let measure_point ~spec ~matrices (arm, (d : Core.Design.t)) =
  let verify ok =
    if not ok then failwith (Core.Flow.span_key d ^ ": not bit-true")
  in
  arm ();
  let point ~area ~throughput_mops ~fmax_mhz =
    {
      Core.Fig1.label = d.Core.Design.label;
      area;
      throughput_mops;
      fmax_mhz;
    }
  in
  match d.Core.Design.impl with
  | Core.Design.Stream cell ->
      let c = Core.Design.force cell in
      add "elaborate.nodes" (float_of_int (Hw.Netlist.num_nodes c));
      timed "validate.busy_s" (fun () -> Hw.Netlist.validate c);
      let mats = spec.Core.Flow.stimulus matrices in
      let r =
        timed "simulate.busy_s" (fun () ->
            try
              Axis.Driver.run ?timeout:spec.Core.Flow.sim_timeout c mats
            with e ->
              add "simulate.failures" 1.;
              raise e)
      in
      add "simulate.cycles" (float_of_int r.Axis.Driver.cycles);
      timed "verify.busy_s" (fun () ->
          verify
            (bit_true ~spec ~got:r.Axis.Driver.outputs mats
            && r.Axis.Driver.violations = []));
      let rep = timed "synthesize.busy_s" (fun () -> Hw.Synth.run c) in
      point ~area:rep.Hw.Synth.area
        ~throughput_mops:
          (rep.Hw.Synth.fmax_mhz /. float_of_int r.Axis.Driver.periodicity)
        ~fmax_mhz:rep.Hw.Synth.fmax_mhz
  | Core.Design.Pcie p ->
      let s = Core.Design.force p.Core.Design.system in
      let kernel = s.Maxj.Manager.kernel in
      add "elaborate.nodes" (float_of_int (Hw.Netlist.num_nodes kernel));
      timed "validate.busy_s" (fun () -> Hw.Netlist.validate kernel);
      let r = timed "simulate.busy_s" (fun () -> Maxj.Manager.evaluate s) in
      timed "verify.busy_s" (fun () ->
          let mats = spec.Core.Flow.stimulus matrices in
          verify (bit_true ~spec ~got:(p.Core.Design.simulate mats) mats));
      let rep = timed "synthesize.busy_s" (fun () -> Hw.Synth.run kernel) in
      point ~area:rep.Hw.Synth.area
        ~throughput_mops:r.Maxj.Manager.throughput_mops
        ~fmax_mhz:r.Maxj.Manager.fmax_mhz

let fig1 ~jobs =
  let kernel = Core.Kernel.idct in
  let spec = Core.Kernel.spec kernel in
  let tools = Core.Kernel.tools kernel in
  let designs =
    List.concat_map (fun t -> List.map wrap (Core.Kernel.sweep kernel t)) tools
  in
  add "simulate.failures" 0.;
  (* [Core.Fig1.compute] measures its points with 3 matrices *)
  let points, wall =
    gc_delta (fun () -> pool_map ~jobs (measure_point ~spec ~matrices:3) designs)
  in
  set "fig1.wall_s" wall;
  let elaborate =
    List.fold_left
      (fun acc t -> acc +. get ("elaborate." ^ tool_key t ^ "_s"))
      0. tools
  in
  set "elaborate.busy_s" elaborate;
  set "simulate.cycles_per_s" (get "simulate.cycles" /. get "simulate.busy_s");
  (* Domain time no layer accounts for: pool hand-off, stimulus and
     reference generation, metric assembly, GC and idle domains. *)
  set "fig1.residual_s"
    ((float_of_int jobs *. wall)
    -. List.fold_left
         (fun acc k -> acc +. get k)
         elaborate
         [
           "elaborate.lock_wait_s"; "validate.busy_s"; "simulate.busy_s";
           "verify.busy_s"; "synthesize.busy_s";
         ]);
  (* The same program: the points assembled here equal the library's
     own Fig. 1, measured afterwards and outside the timed region. *)
  let reference = List.map snd (Core.Fig1.points ~jobs ~kernel ()) in
  set "fig1.points" (float_of_int (List.length points));
  set "fig1.points_match" (if points = reference then 1. else 0.)

(* The same region as [fig1]'s timed one, through the library with no
   wrapper: the base of the traced run's overhead. *)
let fig1_plain ~jobs =
  let t0 = now () in
  let points = Core.Fig1.points ~jobs ~kernel:Core.Kernel.idct () in
  set "fig1.wall_s" (now () -. t0);
  set "fig1.points" (float_of_int (List.length points))

(* ---------------- comply: IEEE 1180 through the batched DUT ---------------- *)

let comply ~jobs ~blocks =
  let kernel = Core.Kernel.idct in
  let base = Core.Kernel.spec kernel in
  (* the spec's procedure, with the batched DUT it drives timed apart from
     the statistics around it *)
  let spec =
    {
      base with
      Core.Flow.comply =
        (fun ~blocks dut ->
          let in_dut = ref 0. in
          let timed_dut blks =
            let t0 = now () in
            let r = dut blks in
            in_dut := !in_dut +. (now () -. t0);
            add "comply.blocks" (float_of_int (List.length blks));
            r
          in
          let t0 = now () in
          let ok = base.Core.Flow.comply ~blocks timed_dut in
          add "comply.sim_s" !in_dut;
          add "comply.stats_s" (now () -. t0 -. !in_dut);
          ok);
    }
  in
  let designs =
    List.map (fun t -> wrap (Core.Kernel.optimized kernel t)) (Core.Kernel.tools kernel)
  in
  let verdicts, wall =
    pool_map ~jobs
      (fun (arm, (d : Core.Design.t)) ->
        let key = "comply." ^ tool_key d.Core.Design.tool ^ "_s" in
        arm ();
        let ok = timed key (fun () -> Core.Evaluate.check_compliance ~blocks ~spec d) in
        (d.Core.Design.tool, ok))
      designs
  in
  set "comply.wall_s" wall;
  let times =
    List.map (fun (t, _) -> get ("comply." ^ tool_key t ^ "_s")) verdicts
  in
  let critical = List.fold_left Float.max 0. times in
  set "comply.critical_s" critical;
  set "comply.imbalance"
    (critical /. (List.fold_left ( +. ) 0. times /. float_of_int jobs));
  List.iter
    (fun (t, ok) -> set ("verdict." ^ tool_key t) (if ok then 1. else 0.))
    verdicts

(* ---------------- serve: the daemon over a timed store ---------------- *)

let timed_backend (b : Core.Evaluate.store_backend) =
  {
    b with
    Core.Evaluate.sb_find =
      (fun key ->
        let t0 = now () in
        let r = b.Core.Evaluate.sb_find key in
        add "store.find_s" (now () -. t0);
        add "store.finds" 1.;
        if r <> None then add "store.hits" 1.;
        r);
    sb_add =
      (fun key m ->
        let t0 = now () in
        b.Core.Evaluate.sb_add key m;
        add "store.add_s" (now () -. t0);
        add "store.writes" 1.);
  }

let serve ~socket ~store ~jobs ~workers =
  let st =
    match Store.open_store store with
    | Ok st -> st
    | Error e -> failwith ("probe: store " ^ store ^ ": " ^ e)
  in
  Core.Evaluate.set_store_backend (Some (timed_backend (Store.backend st)));
  let c =
    Serve.run
      {
        (Serve.default_config ~socket_path:socket) with
        jobs = Some jobs;
        store = Some st;
        conn_workers = workers;
      }
  in
  List.iter
    (fun (k, a) -> set ("serve." ^ k) (float_of_int (Atomic.get a)))
    [
      ("evals", c.Serve.evals); ("memo_hits", c.Serve.memo_hits);
      ("eval_errors", c.Serve.eval_errors); ("shed", c.Serve.shed);
      ("conn_timeouts", c.Serve.conn_timeouts); ("drops", c.Serve.drops);
    ];
  List.iter (fun k -> add k 0.)
    [ "store.finds"; "store.find_s"; "store.hits"; "store.writes"; "store.add_s" ]

let () =
  let int = int_of_string in
  (match Array.to_list Sys.argv with
  | [ _; "fig1"; jobs ] -> fig1 ~jobs:(int jobs)
  | [ _; "fig1-plain"; jobs ] -> fig1_plain ~jobs:(int jobs)
  | [ _; "comply"; jobs; blocks ] -> comply ~jobs:(int jobs) ~blocks:(int blocks)
  | [ _; "serve"; socket; store; jobs; workers ] ->
      serve ~socket ~store ~jobs:(int jobs) ~workers:(int workers)
  | _ ->
      prerr_endline
        "usage: probe fig1 JOBS | probe fig1-plain JOBS | probe comply JOBS BLOCKS | probe serve \
         SOCKET STORE JOBS WORKERS";
      exit 2);
  print_figures ()
