(* lib/transfo: scripted, equivalence-verified design transformations.

   Covers the script parser, the catalogue, each transformation's
   behaviour, the verification obligations (including that a broken
   transformation IS caught), the qcheck property that random applicable
   scripts on random combinational circuits stay crosscheck-clean, and
   the rederivation pin: initial architecture + script is node-identical
   to the hand-written Chisel optimized design. *)

open Hw
open Transfo
open Alcotest

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let row_comb name = Chisel.Idct_gen.row_comb Chisel.Idct_gen.Inferred ~name

let run_exn script subject =
  match Engine.run (Script.parse_exn script) subject with
  | Ok r -> r
  | Error e -> fail (Engine.error_to_string e)

(* ---------------- script parser ---------------- *)

let test_script_parse () =
  (match Script.parse "retime 2; strength_reduce" with
  | Ok [ a; b ] ->
      check string "name 1" "retime" a.Script.step_name;
      check (option int) "arg 1" (Some 2) a.Script.step_arg;
      check string "name 2" "strength_reduce" b.Script.step_name;
      check (option int) "arg 2" None b.Script.step_arg
  | Ok _ -> fail "wrong step count"
  | Error e -> fail e);
  check string "canonical form" "retime 2; unroll 4"
    (Script.to_string (Script.parse_exn "  Retime   2 ;unroll 4 ;"));
  (match Script.parse "" with
  | Error e -> check bool "empty diagnostic" true (contains e "empty script")
  | Ok _ -> fail "empty script accepted");
  (match Script.parse "retime two" with
  | Error e -> check bool "bad int diagnostic" true (contains e "not an integer")
  | Ok _ -> fail "non-integer argument accepted");
  match Script.parse "retime 2 3" with
  | Error e -> check bool "arity diagnostic" true (contains e "expected NAME")
  | Ok _ -> fail "three-token step accepted"

(* ---------------- catalogue ---------------- *)

let test_catalog () =
  check (list string) "catalogue order"
    [
      "retime";
      "outreg";
      "strength_reduce";
      "narrow";
      "unroll";
      "fold_rows";
      "fold_cols";
    ]
    (Catalog.names ());
  (match Catalog.find "PIPELINE" with
  | Some (module T : Catalog.TRANSFO) ->
      check string "alias resolves" "retime" T.name
  | None -> fail "alias lookup failed");
  check bool "unknown name" true (Catalog.find "bogus" = None);
  let msg = Catalog.unknown_transfo_msg "bogus" in
  check bool "msg names the culprit" true (contains msg "\"bogus\"");
  List.iter
    (fun nm -> check bool ("msg lists " ^ nm) true (contains msg nm))
    (Catalog.names ())

(* ---------------- individual transformations ---------------- *)

let test_retime () =
  let r = run_exn "retime 2" (Subject.of_circuit (row_comb "rc_retime")) in
  let subj = r.Engine.rep_subject in
  check int "latency accounted" 2 subj.Subject.latency_added;
  check bool "registers present" true
    (Array.exists Netlist.is_reg subj.Subject.circuit.Netlist.nodes);
  check (list string) "history" [ "retime 2" ] subj.Subject.history

let test_outreg () =
  let before = row_comb "rc_outreg" in
  let r = run_exn "outreg" (Subject.of_circuit before) in
  let c = r.Engine.rep_subject.Subject.circuit in
  check int "one reg per output"
    (List.length before.Netlist.outputs)
    (Array.to_seq c.Netlist.nodes |> Seq.filter Netlist.is_reg |> Seq.length);
  check int "latency accounted" 1 r.Engine.rep_subject.Subject.latency_added

let const_muls (c : Netlist.t) =
  Array.to_seq c.Netlist.nodes
  |> Seq.filter (fun (nd : Netlist.node) ->
         match nd.Netlist.kind with
         | Netlist.Binop (Netlist.Mul, a, b) ->
             let is_const u =
               match (Netlist.node c u).Netlist.kind with
               | Netlist.Const _ -> true
               | _ -> false
             in
             is_const a || is_const b
         | _ -> false)
  |> Seq.length

let test_strength_reduce () =
  let before = row_comb "rc_sr" in
  check bool "subject has constant products" true (const_muls before > 0);
  let r = run_exn "strength_reduce" (Subject.of_circuit before) in
  check int "no constant products remain" 0
    (const_muls r.Engine.rep_subject.Subject.circuit)

(* Narrowing re-extends at every boundary, so the interesting metric is
   the width of the arithmetic itself, not the node-count (which grows
   with the coercions). *)
let arith_width (c : Netlist.t) =
  Array.fold_left
    (fun acc (nd : Netlist.node) ->
      match nd.Netlist.kind with
      | Netlist.Binop ((Netlist.Add | Netlist.Sub | Netlist.Mul), _, _) ->
          acc + nd.Netlist.width
      | _ -> acc)
    0 c.Netlist.nodes

let test_narrow () =
  (* the Fixed (32, 16) discipline computes everything in 32 bits and
     stores 16: demand analysis must strip dead upper bits *)
  let before =
    Chisel.Idct_gen.row_comb Chisel.Idct_gen.verilog_mode ~name:"rc_narrow"
  in
  let r = run_exn "narrow" (Subject.of_circuit before) in
  let after = r.Engine.rep_subject.Subject.circuit in
  check bool "arithmetic width shrinks" true
    (arith_width after < arith_width before)

let test_unroll () =
  let before = row_comb "rc_unroll" in
  let r = run_exn "unroll 4" (Subject.of_circuit before) in
  let c = r.Engine.rep_subject.Subject.circuit in
  check int "4x inputs"
    (4 * List.length before.Netlist.inputs)
    (List.length c.Netlist.inputs);
  check bool "lane-suffixed ports" true
    (List.mem_assoc "i0_r0" c.Netlist.inputs
    && List.mem_assoc "o7_r3" c.Netlist.outputs);
  check string "name suffix" "rc_unroll_x4" c.Netlist.circuit_name

(* ---------------- preconditions and diagnostics ---------------- *)

let test_preconditions () =
  let seq =
    Subject.of_circuit
      (run_exn "retime 1" (Subject.of_circuit (row_comb "rc_seq")))
        .Engine.rep_subject
        .Subject.circuit
  in
  (match Engine.run (Script.parse_exn "retime 2") seq with
  | Error (Engine.Precondition_failed { pf_reason; _ }) ->
      check bool "retime wants comb" true (contains pf_reason "combinational")
  | _ -> fail "retime accepted a sequential circuit");
  (match Engine.run (Script.parse_exn "fold_rows") seq with
  | Error (Engine.Precondition_failed { pf_reason; _ }) ->
      check bool "fold_rows wants an architecture" true
        (contains pf_reason "architecture")
  | _ -> fail "fold_rows accepted a netlist-only subject");
  (match Engine.run (Script.parse_exn "retime") seq with
  | Error (Engine.Precondition_failed { pf_reason; _ }) ->
      check bool "retime wants an argument" true (contains pf_reason "argument")
  | _ -> fail "retime accepted a missing argument");
  match
    Engine.run (Script.parse_exn "bogus") (Subject.of_circuit (row_comb "rc"))
  with
  | Error (Engine.Unknown_transfo nm) -> check string "culprit" "bogus" nm
  | _ -> fail "unknown transformation accepted"

(* ---------------- a broken transformation is caught ---------------- *)

(* Deliberately wrong "strength reduction": rewrites c*x to x+x. *)
module Bad_reduce = struct
  let name = "bad_reduce"
  let aliases = []
  let description = "deliberately broken (test only)"
  let precondition = "none"
  let arg = Catalog.No_arg
  let check ~arg:_ _ = Ok ()

  let apply ~arg:_ (s : Subject.t) =
    let hook em _ (nd : Netlist.node) =
      match nd.Netlist.kind with
      | Netlist.Binop (Netlist.Mul, a, b) ->
          Some
            (Rewrite.emit em ~width:nd.Netlist.width
               (Netlist.Binop
                  (Netlist.Add, Rewrite.mapped em a, Rewrite.mapped em b)))
      | _ -> None
    in
    {
      s with
      Subject.circuit = Rewrite.rewrite hook s.Subject.circuit;
      arch = None;
    }

  let obligation ~arg:_ = Verify.Cycle_exact
end

(* Correct rewrite, wrong obligation: claims two cycles of delay while
   adding one. *)
module Wrong_latency = struct
  let name = "wrong_latency"
  let aliases = []
  let description = "deliberately broken (test only)"
  let precondition = "combinational circuit"
  let arg = Catalog.No_arg
  let check ~arg:_ _ = Ok ()

  let apply ~arg:_ (s : Subject.t) =
    { s with Subject.circuit = Pipeline.retime ~stages:1 s.Subject.circuit }

  let obligation ~arg:_ = Verify.Delayed 2
end

let test_broken_caught () =
  let s = Subject.of_circuit (row_comb "rc_bad") in
  (match Engine.apply_step (module Bad_reduce) ~arg:None s with
  | Error (Engine.Verify_failed { vf_obligation; _ }) ->
      check string "cycle-exact obligation blamed" "cycle-exact" vf_obligation
  | Ok _ -> fail "broken rewrite survived verification"
  | Error e -> fail (Engine.error_to_string e));
  match Engine.apply_step (module Wrong_latency) ~arg:None s with
  | Error (Engine.Verify_failed { vf_reason; _ }) ->
      check bool "latency mismatch reported" true (contains vf_reason "delayed")
  | Ok _ -> fail "wrong latency claim survived verification"
  | Error e -> fail (Engine.error_to_string e)

(* ---------------- rederivation pin ---------------- *)

let test_rederive_chisel () =
  let hand =
    Chisel.Idct_gen.design_rowcol Chisel.Idct_gen.Inferred
      ~name:"chisel_optimized"
  in
  let subject =
    Subject.of_arch
      (Chisel.Idct_gen.arch Chisel.Idct_gen.Inferred ~name:"chisel_optimized"
         ())
  in
  let r = run_exn Core.Registry.chisel_transfo_script subject in
  let derived = r.Engine.rep_subject.Subject.circuit in
  (* node-identical, not merely equivalent: every uid, kind, width, name,
     port and memory matches, so all downstream artifacts (Table II,
     Fig. 1, store digests) are byte-identical to the hand-written rung *)
  check bool "derived = hand-written (structural)" true (derived = hand);
  check (list string) "history" [ "fold_rows"; "fold_cols" ]
    r.Engine.rep_subject.Subject.history;
  (* the registry's optimized Chisel design now forces through this very
     derivation; a verification failure there would raise *)
  match (Core.Registry.optimized Core.Design.Chisel).Core.Design.impl with
  | Core.Design.Stream l ->
      check bool "registry rederivation forces" true
        (Core.Design.force l = hand)
  | Core.Design.Pcie _ -> fail "chisel optimized is a stream design"

(* ---------------- property: random scripts stay clean ---------------- *)

(* Random combinational circuits seeded with constant products (the
   strength_reduce target), then a random applicable script.  The engine
   already runs three checks per step — the step's obligation, then a
   crosscheck of the result against the reference interpreter at 1 and
   at 4 lanes — so [Ok] here means the whole sequence verified. *)
let random_comb seed =
  let rng = Random.State.make [| seed; 0x7F23 |] in
  let widths = [| 2; 3; 7; 8; 12; 16; 24; 31; 33 |] in
  let pick a = a.(Random.State.int rng (Array.length a)) in
  let b = Builder.create (Printf.sprintf "rnd%d" seed) in
  let pool = ref [] in
  let push s = pool := s :: !pool in
  let any () = List.nth !pool (Random.State.int rng (List.length !pool)) in
  let coerce w s =
    let ws = Builder.width s in
    if ws = w then s
    else if ws > w then Builder.slice b s ~hi:(w - 1) ~lo:0
    else if Random.State.bool rng then Builder.uext b s w
    else Builder.sext b s w
  in
  for i = 0 to 1 + Random.State.int rng 3 do
    push (Builder.input b (Printf.sprintf "i%d" i) (pick widths))
  done;
  for _ = 1 to 15 + Random.State.int rng 15 do
    let w = pick widths in
    let x () = coerce w (any ()) and y () = coerce w (any ()) in
    push
      (match Random.State.int rng 12 with
      | 0 -> Builder.add b (x ()) (y ())
      | 1 -> Builder.sub b (x ()) (y ())
      | 2 | 3 ->
          let span = 1 lsl min w 12 in
          let k = Random.State.int rng span - (span / 2) in
          Builder.mul b (Builder.const b ~width:w k) (x ())
      | 4 -> Builder.mul b (x ()) (y ())
      | 5 -> Builder.and_ b (x ()) (y ())
      | 6 -> Builder.or_ b (x ()) (y ())
      | 7 -> Builder.xor_ b (x ()) (y ())
      | 8 -> Builder.neg b (x ())
      | 9 -> Builder.mux b (coerce 1 (any ())) (x ()) (y ())
      | 10 -> Builder.sra b (x ()) (coerce 4 (any ()))
      | _ -> Builder.not_ b (x ()))
  done;
  List.iteri
    (fun i s -> Builder.output b (Printf.sprintf "o%d" i) s)
    (List.filteri (fun i _ -> i land 2 = 0) !pool);
  Builder.finalize b

(* Every entry is applicable to a combinational circuit; sequential
   producers (retime/outreg) only ever appear last. *)
let applicable_scripts =
  [|
    "strength_reduce";
    "narrow";
    "strength_reduce; narrow";
    "narrow; strength_reduce";
    "strength_reduce; narrow; outreg";
    "narrow; retime 2";
    "strength_reduce; unroll 2";
    "outreg";
    "retime 1";
    "unroll 3";
  |]

let transfo_script_prop =
  QCheck.Test.make ~name:"random applicable scripts verify 3-way clean"
    ~count:15
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let script =
        applicable_scripts.(seed mod Array.length applicable_scripts)
      in
      let subject = Subject.of_circuit (random_comb seed) in
      match
        Engine.run ~cycles:96 ~seed (Script.parse_exn script) subject
      with
      | Ok _ -> true
      | Error e ->
          QCheck.Test.fail_reportf "script %S on seed %d: %s" script seed
            (Engine.error_to_string e))

let () =
  Alcotest.run "transfo"
    [
      ( "script",
        [ test_case "parse and print" `Quick test_script_parse ] );
      ( "catalog",
        [ test_case "names, aliases, diagnostics" `Quick test_catalog ] );
      ( "steps",
        [
          test_case "retime" `Quick test_retime;
          test_case "outreg" `Quick test_outreg;
          test_case "strength_reduce" `Quick test_strength_reduce;
          test_case "narrow" `Quick test_narrow;
          test_case "unroll" `Quick test_unroll;
        ] );
      ( "engine",
        [
          test_case "preconditions and diagnostics" `Quick test_preconditions;
          test_case "broken transformations are caught" `Quick
            test_broken_caught;
        ] );
      ( "rederive",
        [ test_case "chisel optimized = initial + script" `Quick
            test_rederive_chisel ] );
      ("property", [ QCheck_alcotest.to_alcotest transfo_script_prop ]);
    ]
