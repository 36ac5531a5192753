(* Tests for the AXI-Stream substrate: protocol monitor, adapters under
   back-pressure and input gaps, latency/periodicity measurement. *)

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

let sample ~cycle ~valid ~ready ~last data =
  { Axis.Monitor.cycle; valid; ready; last; data = Array.make 8 data }

let eight_beats ?(start = 0) () =
  List.init 8 (fun i ->
      sample ~cycle:(start + i) ~valid:true ~ready:true ~last:(i = 7) i)

let test_monitor_clean () =
  check int "no violations" 0 (List.length (Axis.Monitor.check (eight_beats ())))

let test_monitor_stability () =
  let trace =
    [
      sample ~cycle:0 ~valid:true ~ready:false ~last:false 1;
      sample ~cycle:1 ~valid:true ~ready:true ~last:false 2 (* data changed *);
    ]
  in
  let v = Axis.Monitor.check trace in
  check bool "detects unstable data" true
    (List.exists
       (fun (x : Axis.Monitor.violation) ->
         x.rule = "m_data changed while a beat was stalled")
       v)

let test_monitor_drop_valid () =
  let trace =
    [
      sample ~cycle:0 ~valid:true ~ready:false ~last:false 1;
      sample ~cycle:1 ~valid:false ~ready:false ~last:false 1;
    ]
  in
  check bool "detects dropped valid" true
    (Axis.Monitor.check trace
    |> List.exists (fun (x : Axis.Monitor.violation) ->
           x.rule = "m_valid deasserted while a beat was stalled"))

let test_monitor_framing () =
  let bad =
    List.init 8 (fun i ->
        (* last on beat 5 instead of 8 *)
        sample ~cycle:i ~valid:true ~ready:true ~last:(i = 4) i)
  in
  check bool "detects bad framing" true (Axis.Monitor.check bad <> [])

(* A trivial pass-through kernel for adapter tests: out = clip of input. *)
let passthrough_kernel b mid =
  Array.map
    (fun s ->
      let open Hw in
      Builder.slice b (Builder.sext b s 16) ~hi:8 ~lo:0)
    mid

let passthrough_expected blk =
  Array.map
    (fun v ->
      let x = v land 0x1FF in
      if x land 0x100 <> 0 then x - 0x200 else x)
    blk

let mats n =
  let rng = Axis.Block.Rand.create ~seed:3 () in
  List.init n (fun _ -> Axis.Block.Rand.block rng ~lo:(-100) ~hi:100)

let test_wrap_matrix_kernel_basic () =
  let c =
    Axis.Adapter.wrap_matrix_kernel ~name:"pt" ~latency:0
      ~kernel:passthrough_kernel ()
  in
  let inputs = mats 5 in
  let r = Axis.Driver.run c inputs in
  check int "latency 17" 17 r.Axis.Driver.latency;
  check int "periodicity 8" 8 r.Axis.Driver.periodicity;
  check int "clean protocol" 0 (List.length r.Axis.Driver.violations);
  List.iter2
    (fun got input ->
      check bool "payload" true
        (Axis.Block.equal got (passthrough_expected input)))
    r.Axis.Driver.outputs inputs

let test_wrap_matrix_kernel_backpressure () =
  let c =
    Axis.Adapter.wrap_matrix_kernel ~name:"pt" ~latency:0
      ~kernel:passthrough_kernel ()
  in
  let inputs = mats 4 in
  (* sink accepts only every third cycle *)
  let r = Axis.Driver.run ~ready_pattern:(fun t -> t mod 3 = 0) c inputs in
  check int "clean under backpressure" 0 (List.length r.Axis.Driver.violations);
  List.iter2
    (fun got input ->
      check bool "payload under backpressure" true
        (Axis.Block.equal got (passthrough_expected input)))
    r.Axis.Driver.outputs inputs

let test_wrap_matrix_kernel_gaps () =
  let c =
    Axis.Adapter.wrap_matrix_kernel ~name:"pt" ~latency:0
      ~kernel:passthrough_kernel ()
  in
  let inputs = mats 3 in
  let r = Axis.Driver.run ~input_gap:5 c inputs in
  check int "gapped stream is clean" 0 (List.length r.Axis.Driver.violations);
  check int "gap shows in periodicity" 13 r.Axis.Driver.periodicity

let test_wrap_row_col_structure () =
  let mode = Chisel.Idct_gen.verilog_mode in
  let c = Chisel.Idct_gen.design_rowcol mode ~name:"rc" in
  let inputs =
    List.map Idct.Reference.fdct (mats 5)
  in
  let r = Axis.Driver.run c inputs in
  check int "latency 24" 24 r.Axis.Driver.latency;
  check int "periodicity 8" 8 r.Axis.Driver.periodicity;
  let expected = List.map Idct.Chenwang.idct inputs in
  check bool "bit true" true
    (List.for_all2 Axis.Block.equal r.Axis.Driver.outputs expected)

let test_wrap_row_col_backpressure () =
  let mode = Chisel.Idct_gen.verilog_mode in
  let c = Chisel.Idct_gen.design_rowcol mode ~name:"rc" in
  let inputs = List.map Idct.Reference.fdct (mats 3) in
  let r = Axis.Driver.run ~ready_pattern:(fun t -> t mod 2 = 0) c inputs in
  let expected = List.map Idct.Chenwang.idct inputs in
  check bool "bit true under backpressure" true
    (List.for_all2 Axis.Block.equal r.Axis.Driver.outputs expected);
  check int "protocol clean" 0 (List.length r.Axis.Driver.violations)

let test_pipelined_kernel_wrap () =
  (* A latency-3 kernel through the pipelined hand-off path. *)
  let kernel b mid =
    let open Hw in
    Array.map
      (fun s ->
        let r1 = Builder.reg_next b s in
        let r2 = Builder.reg_next b r1 in
        let r3 = Builder.reg_next b r2 in
        Builder.slice b (Builder.sext b r3 16) ~hi:8 ~lo:0)
      mid
  in
  let c = Axis.Adapter.wrap_matrix_kernel ~name:"lat3" ~latency:3 ~kernel () in
  let inputs = mats 4 in
  let r = Axis.Driver.run c inputs in
  check int "latency 17+3" 20 r.Axis.Driver.latency;
  List.iter2
    (fun got input ->
      check bool "payload through pipe" true
        (Axis.Block.equal got (passthrough_expected input)))
    r.Axis.Driver.outputs inputs

let test_driver_timeout () =
  (* A circuit that never produces output must raise, not hang. *)
  let b = Hw.Builder.create "dead" in
  let p = Axis.Stream.declare_inputs b in
  ignore p;
  Axis.Stream.expose_outputs b
    ~s_ready:(Hw.Builder.one b 1)
    ~m_valid:(Hw.Builder.zero b 1)
    ~m_last:(Hw.Builder.zero b 1)
    ~m_data:(Array.init 8 (fun _ -> Hw.Builder.zero b 9));
  let c = Hw.Builder.finalize b in
  match Axis.Driver.run ~timeout:200 c (mats 1) with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "expected timeout"

let test_driver_timeout_reports_batch () =
  (* The diagnostic must carry the lane count and per-lane progress, and
     keep the "timeout after" marker the flow layer keys on. *)
  let b = Hw.Builder.create "dead" in
  ignore (Axis.Stream.declare_inputs b);
  Axis.Stream.expose_outputs b
    ~s_ready:(Hw.Builder.one b 1)
    ~m_valid:(Hw.Builder.zero b 1)
    ~m_last:(Hw.Builder.zero b 1)
    ~m_data:(Array.init 8 (fun _ -> Hw.Builder.zero b 9));
  let c = Hw.Builder.finalize b in
  match Axis.Driver.run ~batch:4 ~timeout:200 c (mats 8) with
  | exception Failure msg ->
      let has needle =
        let nl = String.length needle and hl = String.length msg in
        let rec go i =
          i + nl <= hl && (String.sub msg i nl = needle || go (i + 1))
        in
        go 0
      in
      check bool "mentions timeout after" true (has "timeout after");
      check bool "mentions batch" true (has "batch 4");
      check bool "mentions duty" true (has "duty")
  | _ -> Alcotest.fail "expected timeout"

let test_driver_batched_matches_sequential () =
  (* Lane-parallel runs must reproduce the sequential outputs exactly,
     for every split of matrices across lanes (including uneven ones). *)
  let c =
    Axis.Adapter.wrap_matrix_kernel ~name:"pt" ~latency:0
      ~kernel:passthrough_kernel ()
  in
  let inputs = mats 7 in
  let seq = Axis.Driver.run c inputs in
  List.iter
    (fun batch ->
      let r = Axis.Driver.run ~batch c inputs in
      check int
        (Printf.sprintf "batch %d: clean protocol" batch)
        0
        (List.length r.Axis.Driver.violations);
      check bool
        (Printf.sprintf "batch %d: same outputs" batch)
        true
        (List.for_all2 Axis.Block.equal r.Axis.Driver.outputs
           seq.Axis.Driver.outputs))
    [ 1; 3; 7; 16 ];
  (* transform_batch is the one-matrix-per-lane convenience wrapper *)
  let got = Axis.Driver.transform_batch c inputs in
  check bool "transform_batch matches" true
    (List.for_all2 Axis.Block.equal got seq.Axis.Driver.outputs)

(* ---------------- online monitor vs a list-based fold ---------------- *)

(* The rules as a fold over a recorded trace: the checker's definition,
   kept here independent of the online implementation. *)
let reference_check (samples : Axis.Monitor.sample list) =
  let violations = ref [] in
  let report at_cycle rule =
    violations := { Axis.Monitor.at_cycle; rule } :: !violations
  in
  let _ =
    List.fold_left
      (fun (beats, stalled) (s : Axis.Monitor.sample) ->
        (match stalled with
        | Some (p : Axis.Monitor.sample) ->
            if not s.valid then
              report s.cycle "m_valid deasserted while a beat was stalled"
            else begin
              if s.data <> p.data then
                report s.cycle "m_data changed while a beat was stalled";
              if s.last <> p.last then
                report s.cycle "m_last changed while a beat was stalled"
            end
        | None -> ());
        if s.last && not s.valid then
          report s.cycle "m_last asserted without m_valid";
        let beats =
          if s.valid && s.ready then begin
            let beats = beats + 1 in
            let should_last = beats mod 8 = 0 in
            if s.last && not should_last then
              report s.cycle
                (Printf.sprintf "m_last on beat %d (expected every 8th)" beats);
            if should_last && not s.last then
              report s.cycle (Printf.sprintf "missing m_last on beat %d" beats);
            beats
          end
          else beats
        in
        (beats, if s.valid && not s.ready then Some s else None))
      (0, None) samples
  in
  List.rev !violations

(* A mostly well-formed stream with every kind of fault mixed in: a
   stalled beat usually holds but sometimes drops valid or changes data
   or last; framing is usually right but sometimes early or missing;
   last sometimes comes without valid. *)
let random_trace rng n =
  let pick k = Random.State.int rng k = 0 in
  let beats = ref 0 in
  let rec go cycle (prev : Axis.Monitor.sample option) acc =
    if cycle = n then List.rev acc
    else
      let s =
        match prev with
        | Some p when p.valid && (not p.ready) && not (pick 4) ->
            { p with cycle; ready = not (pick 2) }
        | _ ->
            let valid = not (pick 4) in
            let last =
              if valid then ((!beats + 1) mod 8 = 0) <> pick 8 else pick 10
            in
            {
              Axis.Monitor.cycle;
              valid;
              ready = not (pick 3);
              last;
              data = Array.init 8 (fun _ -> Random.State.int rng 3);
            }
      in
      let s =
        match prev with
        | Some p when p.valid && (not p.ready) && s.valid && pick 6 ->
            if pick 2 then { s with data = Array.map succ p.data }
            else { s with last = not p.last }
        | _ -> s
      in
      if s.valid && s.ready then incr beats;
      go (cycle + 1) (Some s) (s :: acc)
  in
  go 0 None []

let test_monitor_online_equals_fold () =
  let rules = Hashtbl.create 8 in
  for seed = 1 to 300 do
    let rng = Random.State.make [| seed |] in
    let trace = random_trace rng (20 + Random.State.int rng 60) in
    let expected = reference_check trace in
    let label = Printf.sprintf "seed %d" seed in
    check bool (label ^ ": check") true (Axis.Monitor.check trace = expected);
    (* online, with the caller reusing one data buffer as the driver does *)
    let m = Axis.Monitor.create () and buf = Array.make 8 0 in
    List.iter
      (fun (s : Axis.Monitor.sample) ->
        Array.blit s.data 0 buf 0 8;
        Axis.Monitor.observe m ~cycle:s.cycle ~valid:s.valid ~ready:s.ready
          ~last:s.last ~data:buf)
      trace;
    check bool (label ^ ": observe") true (Axis.Monitor.finish m = expected);
    List.iter
      (fun (v : Axis.Monitor.violation) ->
        Hashtbl.replace rules (String.sub v.rule 0 (min 14 (String.length v.rule))) ())
      expected
  done;
  (* the traces reach every rule *)
  List.iter
    (fun r -> check bool ("reached: " ^ r) true (Hashtbl.mem rules r))
    [ "m_valid deasse"; "m_data changed"; "m_last changed"; "m_last asserte";
      "m_last on beat"; "missing m_last" ]

(* ---------------- both engines, one testbench ---------------- *)

let bambu_initial () =
  match (Core.Registry.initial Core.Design.Bambu).Core.Design.impl with
  | Core.Design.Stream c -> Core.Design.force c
  | Core.Design.Pcie _ -> Alcotest.fail "Bambu designs are streams"

let test_engines_agree () =
  let c = bambu_initial () in
  let inputs = List.map Idct.Reference.fdct (mats 4) in
  List.iter
    (fun batch ->
      let run engine =
        Axis.Driver.run ~engine ~batch ~input_gap:3
          ~ready_pattern:(fun t -> t mod 5 <> 2 && t mod 7 <> 0)
          c inputs
      in
      let a = run Axis.Driver.Compiled and b = run Axis.Driver.Reference in
      let label what = Printf.sprintf "batch %d: %s" batch what in
      check bool (label "outputs") true
        (List.for_all2 Axis.Block.equal a.Axis.Driver.outputs
           b.Axis.Driver.outputs);
      check int (label "latency") a.latency b.latency;
      check int (label "periodicity") a.periodicity b.periodicity;
      check int (label "cycles") a.cycles b.cycles;
      check bool (label "violations") true (a.violations = b.violations);
      check bool (label "bit true") true
        (List.for_all2 Axis.Block.equal a.outputs
           (List.map Idct.Chenwang.idct inputs)))
    [ 1; 3 ]

(* ---------------- allocation ---------------- *)

(* Minor words per simulated cycle of a whole batch-1 run (engine
   construction included), on the design family that dominates Fig. 1's
   simulated cycles.  A testbench that builds port names, hashes them or
   records its trace allocates well over 1,000. *)
let test_driver_allocation () =
  let c = bambu_initial () in
  let inputs = List.map Idct.Reference.fdct (mats 4) in
  ignore (Axis.Driver.run c inputs);
  let before = Gc.minor_words () in
  let r = Axis.Driver.run c inputs in
  let words = Gc.minor_words () -. before in
  let per_cycle = words /. float_of_int r.Axis.Driver.cycles in
  check bool
    (Printf.sprintf "%.1f minor words per cycle (%d cycles) <= 32" per_cycle
       r.cycles)
    true (per_cycle <= 32.)

let () =
  Alcotest.run "axis"
    [
      ( "monitor",
        [
          Alcotest.test_case "clean trace" `Quick test_monitor_clean;
          Alcotest.test_case "stability violation" `Quick test_monitor_stability;
          Alcotest.test_case "dropped valid" `Quick test_monitor_drop_valid;
          Alcotest.test_case "framing" `Quick test_monitor_framing;
          Alcotest.test_case "online = reference fold" `Quick
            test_monitor_online_equals_fold;
        ] );
      ( "adapters",
        [
          Alcotest.test_case "matrix kernel basics" `Quick test_wrap_matrix_kernel_basic;
          Alcotest.test_case "back-pressure" `Quick test_wrap_matrix_kernel_backpressure;
          Alcotest.test_case "input gaps" `Quick test_wrap_matrix_kernel_gaps;
          Alcotest.test_case "row/col engine" `Quick test_wrap_row_col_structure;
          Alcotest.test_case "row/col back-pressure" `Quick test_wrap_row_col_backpressure;
          Alcotest.test_case "pipelined kernel" `Quick test_pipelined_kernel_wrap;
          Alcotest.test_case "driver timeout" `Quick test_driver_timeout;
          Alcotest.test_case "timeout reports batch" `Quick
            test_driver_timeout_reports_batch;
          Alcotest.test_case "batched run == sequential run" `Quick
            test_driver_batched_matches_sequential;
        ] );
      ( "driver",
        [
          Alcotest.test_case "compiled = reference engine" `Quick
            test_engines_agree;
          Alcotest.test_case "allocation per cycle" `Quick
            test_driver_allocation;
        ] );
    ]
