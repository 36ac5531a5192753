(* Tests for the rule-based language: type checking, conflict analysis,
   the scheduler's one-rule-at-a-time soundness (via random rule programs),
   compilation, options and the IDCT designs. *)

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

open Bsv.Lang

let test_width_check () =
  let bld = builder "w" in
  let r8 = mk_reg bld "a" 8 in
  let bad = Binop (Hw.Netlist.Add, Read r8, cst 4 1) in
  mk_rule bld "r" ~guard:(cst 1 1) [ assign r8 bad ];
  (match mk_module bld with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "expected width error")

let test_guard_must_be_bool () =
  let bld = builder "w" in
  let r8 = mk_reg bld "a" 8 in
  mk_rule bld "r" ~guard:(Read r8) [ assign r8 (cst 8 1) ];
  (match mk_module bld with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "expected guard error")

let test_conflicts () =
  let bld = builder "c" in
  let a = mk_reg bld "a" 8 in
  let b = mk_reg bld "b" 8 in
  mk_rule bld "w1" ~guard:(cst 1 1) [ assign a (cst 8 1) ];
  mk_rule bld "w2" ~guard:(cst 1 1) [ assign a (cst 8 2) ];
  mk_rule bld "other" ~guard:(cst 1 1) [ assign b (cst 8 3) ];
  let m = mk_module bld in
  let s = Bsv.Sched.analyze m in
  check bool "write-write conflict" true s.Bsv.Sched.conflict.(0).(1);
  check bool "disjoint targets compatible" false s.Bsv.Sched.conflict.(0).(2)

let test_mutual_rw_conflict () =
  let bld = builder "c" in
  let a = mk_reg bld "a" 8 in
  let b = mk_reg bld "b" 8 in
  mk_rule bld "ab" ~guard:(cst 1 1) [ assign a (Read b) ];
  mk_rule bld "ba" ~guard:(cst 1 1) [ assign b (Read a) ];
  let s = Bsv.Sched.analyze (mk_module bld) in
  check bool "swap pair conflicts" true s.Bsv.Sched.conflict.(0).(1)

let test_one_way_rw_compatible () =
  let bld = builder "c" in
  let a = mk_reg bld "a" 8 in
  let b = mk_reg bld "b" 8 in
  mk_rule bld "reader" ~guard:(cst 1 1) [ assign b (Read a) ];
  mk_rule bld "writer" ~guard:(cst 1 1) [ assign a (cst 8 5) ];
  let s = Bsv.Sched.analyze (mk_module bld) in
  check bool "compatible" false s.Bsv.Sched.conflict.(0).(1);
  check bool "reader precedes writer" true s.Bsv.Sched.precede.(0).(1)

let test_precedence_cycle_broken () =
  (* a->b->c->a read/write chain: pairwise fine, cyclic as a whole. *)
  let bld = builder "c" in
  let a = mk_reg bld "a" 8 in
  let b = mk_reg bld "b" 8 in
  let c = mk_reg bld "c" 8 in
  mk_rule bld "r1" ~guard:(cst 1 1) [ assign b (Read a) ];
  mk_rule bld "r2" ~guard:(cst 1 1) [ assign c (Read b) ];
  mk_rule bld "r3" ~guard:(cst 1 1) [ assign a (Read c) ];
  let m = mk_module bld in
  let s = Bsv.Sched.analyze m in
  let any_conflict =
    s.Bsv.Sched.conflict.(0).(1) || s.Bsv.Sched.conflict.(1).(2)
    || s.Bsv.Sched.conflict.(0).(2)
  in
  check bool "cycle is broken by a conflict" true any_conflict;
  (* and whatever fires must still serialize *)
  let st = Bsv.Semantics.initial_state m in
  match Bsv.Semantics.serializable_step st s with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e

let test_disjoint_guards_pruning () =
  let bld = builder "d" in
  let phase = mk_reg bld "phase" 2 in
  let x = mk_reg bld "x" 8 in
  mk_rule bld "p0" ~guard:(Read phase ==: cst 2 0) [ assign x (cst 8 1) ];
  mk_rule bld "p1" ~guard:(Read phase ==: cst 2 1) [ assign x (cst 8 2) ];
  let m = mk_module bld in
  let lazy_sched =
    Bsv.Sched.analyze ~options:{ Bsv.Options.default with Bsv.Options.effort = 0 } m
  in
  let smart = Bsv.Sched.analyze ~options:Bsv.Options.default m in
  check bool "effort 0 sees a conflict" true lazy_sched.Bsv.Sched.conflict.(0).(1);
  check bool "effort 2 discharges it" false smart.Bsv.Sched.conflict.(0).(1)

(* ---------------- random rule programs ---------------- *)

let random_module seed =
  let rng = Random.State.make [| seed |] in
  let bld = builder (Printf.sprintf "rand%d" seed) in
  let regs = Array.init 4 (fun i -> mk_reg bld ~init:i (Printf.sprintf "r%d" i) 8) in
  let rand_expr () =
    let r () = Read regs.(Random.State.int rng 4) in
    match Random.State.int rng 4 with
    | 0 -> r ()
    | 1 -> Binop (Hw.Netlist.Add, r (), r ())
    | 2 -> Binop (Hw.Netlist.Xor, r (), cst 8 (Random.State.int rng 256))
    | _ -> Mux (Binop (Hw.Netlist.Lt Hw.Netlist.Unsigned, r (), r ()), r (), cst 8 7)
  in
  let rand_guard () =
    match Random.State.int rng 3 with
    | 0 -> cst 1 1
    | 1 ->
        Binop
          (Hw.Netlist.Lt Hw.Netlist.Unsigned,
           Read regs.(Random.State.int rng 4),
           cst 8 (64 + Random.State.int rng 128))
    | _ -> Binop (Hw.Netlist.Eq, Slice (Read regs.(Random.State.int rng 4), 1, 0), cst 2 (Random.State.int rng 4))
  in
  for k = 0 to 3 + Random.State.int rng 3 do
    let n_act = 1 + Random.State.int rng 2 in
    (* distinct targets within one rule: a rule is an atomic action *)
    let first = Random.State.int rng 4 in
    let targets =
      if n_act = 1 then [ first ]
      else [ first; (first + 1 + Random.State.int rng 3) mod 4 ]
    in
    let actions = List.map (fun t -> assign regs.(t) (rand_expr ())) targets in
    mk_rule bld (Printf.sprintf "rule%d" k) ~guard:(rand_guard ()) actions
  done;
  Array.iteri (fun i r -> mk_output bld (Printf.sprintf "o%d" i) (Read r)) regs;
  mk_module bld

let serializability_prop =
  QCheck.Test.make ~name:"every compiled cycle is serializable" ~count:120
    QCheck.(int_range 0 100000)
    (fun seed ->
      let m = random_module seed in
      let sched = Bsv.Sched.analyze m in
      let rec go st n =
        n = 0
        ||
        match Bsv.Semantics.serializable_step st sched with
        | Ok st' -> go st' (n - 1)
        | Error _ -> false
      in
      go (Bsv.Semantics.initial_state m) 20)

let compiled_matches_semantics_prop =
  QCheck.Test.make ~name:"netlist matches parallel semantics" ~count:60
    QCheck.(int_range 0 100000)
    (fun seed ->
      let m = random_module seed in
      let circuit, sched = Bsv.Compile.compile_with_schedule m in
      let sim = Hw.Sim.create circuit in
      let rec go st n =
        n = 0
        ||
        let ok =
          List.for_all
            (fun (name, v) ->
              Hw.Sim.get sim name = Hw.Bits.to_int v)
            (Bsv.Semantics.outputs st m)
        in
        ok
        &&
        (Hw.Sim.step sim;
         go (Bsv.Semantics.step_parallel st sched) (n - 1))
      in
      go (Bsv.Semantics.initial_state m) 25)

let options_equivalent_prop =
  QCheck.Test.make ~name:"mux style does not change behaviour" ~count:40
    QCheck.(int_range 0 100000)
    (fun seed ->
      let m = random_module seed in
      let c1 =
        Bsv.Compile.compile
          ~options:{ Bsv.Options.default with Bsv.Options.mux_style = Bsv.Options.Priority }
          m
      in
      let c2 =
        Bsv.Compile.compile
          ~options:{ Bsv.Options.default with Bsv.Options.mux_style = Bsv.Options.One_hot }
          m
      in
      let s1 = Hw.Sim.create c1 and s2 = Hw.Sim.create c2 in
      let ok = ref true in
      for _ = 1 to 25 do
        List.iter
          (fun (name, _) ->
            if Hw.Sim.get s1 name <> Hw.Sim.get s2 name then ok := false)
          c1.Hw.Netlist.outputs;
        Hw.Sim.step s1;
        Hw.Sim.step s2
      done;
      !ok)

(* ---------------- IDCT designs ---------------- *)

let mats n =
  let rng = Axis.Block.Rand.create ~seed:31 () in
  List.init n (fun _ ->
      Idct.Reference.fdct (Axis.Block.Rand.block rng ~lo:(-256) ~hi:255))

let test_idct_designs () =
  List.iter
    (fun (name, m, expect_lat, expect_per) ->
      let c = Bsv.Idct_bsv.circuit m in
      let inputs = mats 4 in
      let r = Axis.Driver.run c inputs in
      check bool (name ^ " bit-true") true
        (List.for_all2 Axis.Block.equal r.Axis.Driver.outputs
           (List.map Idct.Chenwang.idct inputs));
      check int (name ^ " latency") expect_lat r.Axis.Driver.latency;
      check int (name ^ " periodicity (the BSC bubble)") expect_per
        r.Axis.Driver.periodicity)
    [
      ("initial", Bsv.Idct_bsv.initial_design, 18, 9);
      ("optimized", Bsv.Idct_bsv.optimized_design, 26, 9);
    ]

let test_option_sweep_negligible () =
  (* The paper's finding: the 24-option grid barely moves the results. *)
  let areas =
    List.map
      (fun o ->
        (Hw.Synth.run (Bsv.Idct_bsv.circuit ~options:o Bsv.Idct_bsv.optimized_design)).Hw.Synth.area)
      Bsv.Options.all
  in
  let mn = List.fold_left min max_int areas in
  let mx = List.fold_left max 0 areas in
  check bool "area varies by less than 10%" true
    (float_of_int (mx - mn) /. float_of_int mn < 0.10)


(* ---------------- shared expression DAGs ---------------- *)

(* Every BSC Fig. 1 point, pinned to the digest of its emitted Verilog as
   the tree-walking compiler produced it: the memoized frontend must build
   the very same netlists, node for node. *)
let bsc_fig1_digests =
  [
    ("initial", "722412b6756b32818f7d74178dcee81e");
    ("optimized", "d0be666944d88b7404a2ec0a3cb4dc01");
    ("optimized/urgency=declared mux=priority aggressive=false effort=0", "d0be666944d88b7404a2ec0a3cb4dc01");
    ("optimized/urgency=declared mux=priority aggressive=false effort=1", "d0be666944d88b7404a2ec0a3cb4dc01");
    ("optimized/urgency=declared mux=priority aggressive=false effort=2", "d0be666944d88b7404a2ec0a3cb4dc01");
    ("optimized/urgency=declared mux=priority aggressive=true effort=0", "9bd7999fde92dcf15a902f48e9f5b6df");
    ("optimized/urgency=declared mux=priority aggressive=true effort=1", "9bd7999fde92dcf15a902f48e9f5b6df");
    ("optimized/urgency=declared mux=priority aggressive=true effort=2", "9bd7999fde92dcf15a902f48e9f5b6df");
    ("optimized/urgency=declared mux=one-hot aggressive=false effort=0", "e83d6abee13f82bf5ebfd917e3cfbfb2");
    ("optimized/urgency=declared mux=one-hot aggressive=false effort=1", "e83d6abee13f82bf5ebfd917e3cfbfb2");
    ("optimized/urgency=declared mux=one-hot aggressive=false effort=2", "e83d6abee13f82bf5ebfd917e3cfbfb2");
    ("optimized/urgency=declared mux=one-hot aggressive=true effort=0", "2a2e3bbb714dfd18295467603fc045fa");
    ("optimized/urgency=declared mux=one-hot aggressive=true effort=1", "2a2e3bbb714dfd18295467603fc045fa");
    ("optimized/urgency=declared mux=one-hot aggressive=true effort=2", "2a2e3bbb714dfd18295467603fc045fa");
    ("optimized/urgency=reversed mux=priority aggressive=false effort=0", "911b3d938ce98980aae7bbafb4c7573a");
    ("optimized/urgency=reversed mux=priority aggressive=false effort=1", "911b3d938ce98980aae7bbafb4c7573a");
    ("optimized/urgency=reversed mux=priority aggressive=false effort=2", "911b3d938ce98980aae7bbafb4c7573a");
    ("optimized/urgency=reversed mux=priority aggressive=true effort=0", "59ac9d2f6f347657b43357efef7f7944");
    ("optimized/urgency=reversed mux=priority aggressive=true effort=1", "59ac9d2f6f347657b43357efef7f7944");
    ("optimized/urgency=reversed mux=priority aggressive=true effort=2", "59ac9d2f6f347657b43357efef7f7944");
    ("optimized/urgency=reversed mux=one-hot aggressive=false effort=0", "b51b96fceabf17372144949f53590223");
    ("optimized/urgency=reversed mux=one-hot aggressive=false effort=1", "b51b96fceabf17372144949f53590223");
    ("optimized/urgency=reversed mux=one-hot aggressive=false effort=2", "b51b96fceabf17372144949f53590223");
    ("optimized/urgency=reversed mux=one-hot aggressive=true effort=0", "a8b1cdf8b04153df4697bd96756adfbd");
    ("optimized/urgency=reversed mux=one-hot aggressive=true effort=1", "a8b1cdf8b04153df4697bd96756adfbd");
    ("optimized/urgency=reversed mux=one-hot aggressive=true effort=2", "a8b1cdf8b04153df4697bd96756adfbd");
  ]

let test_fig1_netlists_pinned () =
  let sweep = Core.Registry.sweep Core.Design.Bsv in
  check int "26 BSC points" 26 (List.length sweep);
  List.iter2
    (fun (d : Core.Design.t) (label, digest) ->
      check Alcotest.string "sweep order" label d.Core.Design.label;
      match d.Core.Design.impl with
      | Core.Design.Stream c ->
          let v = Hw.Verilog.emit (Core.Design.force c) in
          check Alcotest.string label digest (Digest.to_hex (Digest.string v))
      | Core.Design.Pcie _ -> Alcotest.fail "BSC points are streams")
    sweep bsc_fig1_digests

(* The 26 lazies forced from 4 domains: one compile per distinct
   schedule, so two points share a netlist exactly when their pinned
   digests agree (9 distinct netlists). *)
let test_fig1_netlists_shared () =
  let sweep = Core.Registry.sweep Core.Design.Bsv in
  let netlists =
    Core.Parallel.map ~jobs:4
      (fun (d : Core.Design.t) ->
        match d.Core.Design.impl with
        | Core.Design.Stream c -> Core.Design.force c
        | Core.Design.Pcie _ -> Alcotest.fail "BSC points are streams")
      sweep
  in
  let distinct =
    List.fold_left
      (fun acc n -> if List.exists (( == ) n) acc then acc else n :: acc)
      [] netlists
  in
  check int "9 distinct netlists" 9 (List.length distinct);
  let pinned = List.combine netlists (List.map snd bsc_fig1_digests) in
  List.iteri
    (fun i (a, da) ->
      List.iteri
        (fun j (b, db) ->
          if i < j then
            check bool
              (Printf.sprintf "points %d and %d share iff digests agree" i j)
              (da = db) (a == b))
        pinned)
    pinned

(* Two rules on disjoint guards, one reading what the other writes: at
   effort 0 the reader must precede the writer, at effort 2 the pair is
   discharged.  The conflict matrices agree, so both compile to one
   netlist, yet each caller gets its own schedule back. *)
let test_shared_compile_own_schedule () =
  let bld = builder "own" in
  let phase = mk_reg bld "phase" 2 in
  let x = mk_reg bld "x" 8 and y = mk_reg bld "y" 8 in
  mk_rule bld "reader" ~guard:(Read phase ==: cst 2 0) [ assign y (Read x) ];
  mk_rule bld "writer" ~guard:(Read phase ==: cst 2 1) [ assign x (cst 8 5) ];
  mk_output bld "y" (Read y);
  let small = mk_module bld in
  let effort e = { Bsv.Options.default with Bsv.Options.effort = e } in
  let same_sched (a : Bsv.Sched.t) (b : Bsv.Sched.t) =
    Array.length a.Bsv.Sched.rules = Array.length b.Bsv.Sched.rules
    && Array.for_all2 ( == ) a.Bsv.Sched.rules b.Bsv.Sched.rules
    && a.Bsv.Sched.conflict = b.Bsv.Sched.conflict
    && a.Bsv.Sched.precede = b.Bsv.Sched.precede
  in
  List.iter
    (fun (name, m) ->
      let n0, s0 = Bsv.Compile.compile_with_schedule ~options:(effort 0) m in
      let n2, s2 = Bsv.Compile.compile_with_schedule ~options:(effort 2) m in
      check bool (name ^ ": one netlist") true (n0 == n2);
      check bool (name ^ ": effort 0 schedule is its own") true
        (same_sched s0 (Bsv.Sched.analyze ~options:(effort 0) m));
      check bool (name ^ ": effort 2 schedule is its own") true
        (same_sched s2 (Bsv.Sched.analyze ~options:(effort 2) m)))
    [ ("two rules", small); ("idct optimized", Bsv.Idct_bsv.optimized_design) ];
  let _, s0 = Bsv.Compile.compile_with_schedule ~options:(effort 0) small in
  let _, s2 = Bsv.Compile.compile_with_schedule ~options:(effort 2) small in
  check bool "effort 0: reader precedes writer" true s0.Bsv.Sched.precede.(0).(1);
  check bool "effort 2: pair discharged" false s2.Bsv.Sched.precede.(0).(1)

(* A value whose levels each reuse the level below twice: 2^30 tree paths
   over ~90 distinct nodes.  Only a walker that visits each shared node
   once can compile it or compute its read set. *)
let test_deep_shared_dag () =
  let reg rid rname rinit = { rid; rname; rwidth = 8; rinit } in
  let x = Array.init 4 (fun i -> reg i (Printf.sprintf "x%d" i) (3 + (5 * i))) in
  let acc = reg 4 "acc" 0 and idle = reg 5 "idle" 7 in
  let depth = 30 in
  let rec level k =
    if k = 0 then Read x.(0)
    else
      let below = level (k - 1) in
      Binop
        (Hw.Netlist.Xor, below,
         Binop (Hw.Netlist.Add, below, Read x.(1 + (k mod 3))))
  in
  let deep = level depth in
  let rule = { rule_name = "deep"; guard = cst 1 1; actions = [ assign acc deep ] } in
  check (Alcotest.list int) "read set: exactly the x registers" [ 0; 1; 2; 3 ]
    (read_set rule);
  let m =
    {
      mod_name = "deep";
      inputs = [];
      regs = Array.to_list x @ [ acc; idle ];
      rules = [ rule ];
      outputs = [ ("acc", Read acc) ];
    }
  in
  let c = Bsv.Compile.compile m in
  check bool "one node per distinct subexpression" true
    (Hw.Netlist.num_nodes c < 200);
  let expected =
    let v = ref x.(0).rinit in
    for k = 1 to depth do
      v := !v lxor ((!v + x.(1 + (k mod 3)).rinit) land 0xff)
    done;
    !v
  in
  let sim = Hw.Sim.create c in
  Hw.Sim.step sim;
  check int "one firing computes the deep value" expected (Hw.Sim.get sim "acc")

let () =
  Alcotest.run "bsv"
    [
      ( "lang",
        [
          Alcotest.test_case "width check" `Quick test_width_check;
          Alcotest.test_case "guard must be bool" `Quick test_guard_must_be_bool;
        ] );
      ( "sched",
        [
          Alcotest.test_case "write-write conflicts" `Quick test_conflicts;
          Alcotest.test_case "mutual read-write" `Quick test_mutual_rw_conflict;
          Alcotest.test_case "one-way read-write" `Quick test_one_way_rw_compatible;
          Alcotest.test_case "precedence cycle broken" `Quick test_precedence_cycle_broken;
          Alcotest.test_case "guard disjointness" `Quick test_disjoint_guards_pruning;
        ] );
      ( "soundness",
        List.map QCheck_alcotest.to_alcotest
          [ serializability_prop; compiled_matches_semantics_prop; options_equivalent_prop ] );
      ( "idct",
        [
          Alcotest.test_case "designs bit-true with paper timing" `Slow test_idct_designs;
          Alcotest.test_case "options negligible (paper IV-B)" `Slow test_option_sweep_negligible;
        ] );
      ( "dag",
        [
          Alcotest.test_case "fig1 netlists pinned" `Quick test_fig1_netlists_pinned;
          Alcotest.test_case "fig1 netlists shared" `Quick test_fig1_netlists_shared;
          Alcotest.test_case "shared compile, own schedule" `Quick
            test_shared_compile_own_schedule;
          Alcotest.test_case "deep shared DAG" `Quick test_deep_shared_dag;
        ] );
    ]
