(* The domain-parallel evaluation engine: concurrent forcing of shared
   design lazies, pool semantics, determinism of the Fig. 1 pipeline under
   parallel evaluation, the shared measurement cache, and the fixed
   multi-line-comment LOC counter. *)

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

(* ---------------- concurrent forcing of shared lazies ---------------- *)

(* Spawn [n] domains that each pass a barrier, then run [f index]. *)
let race n f =
  let entered = Atomic.make 0 in
  List.init n (fun i ->
      Domain.spawn (fun () ->
          Atomic.incr entered;
          while Atomic.get entered < n do
            Domain.cpu_relax ()
          done;
          f i))
  |> List.map Domain.join

type built = Circuit of Hw.Netlist.t | System of Maxj.Manager.system

let same a b =
  match (a, b) with
  | Circuit x, Circuit y -> x == y
  | System x, System y -> x == y
  | _ -> false

let shuffled ~seed xs =
  let a = Array.of_list xs in
  let rng = Random.State.make [| seed |] in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* Runs first in this executable, so the design lazies are still cold. *)
let test_concurrent_design_force () =
  let designs =
    List.concat_map
      (fun k ->
        List.concat_map
          (fun i -> i.Core.Kernel.inv_sweep)
          (Core.Kernel.inventories k))
      Core.Kernel.all
    |> Array.of_list
  in
  check bool "idct Fig. 1, fir8 and matmul8 points" true
    (Array.length designs > 100);
  let force i =
    match designs.(i).Core.Design.impl with
    | Core.Design.Stream c -> Circuit (Core.Design.force c)
    | Core.Design.Pcie p -> System (Core.Design.force p.Core.Design.system)
  in
  let per_domain =
    race 4 (fun d ->
        let got = Array.make (Array.length designs) None in
        List.iter
          (fun i -> got.(i) <- Some (force i))
          (shuffled ~seed:d (List.init (Array.length designs) Fun.id));
        Array.map Option.get got)
  in
  let first = List.hd per_domain in
  List.iter
    (fun got ->
      Array.iteri
        (fun i v ->
          check bool
            (Core.Flow.span_key designs.(i) ^ ": one value across domains")
            true (same first.(i) v))
        got)
    per_domain

let test_raising_force_shared () =
  let forcers = Atomic.make 0 in
  let l =
    lazy
      ((* hold the force until every domain has asked for it *)
       while Atomic.get forcers < 4 do
         Domain.cpu_relax ()
       done;
       failwith "elaboration failed")
  in
  let outcomes =
    race 4 (fun _ ->
        Atomic.incr forcers;
        match Core.Design.force l with
        | () -> None
        | exception e -> Some e)
  in
  match outcomes with
  | Some e :: rest ->
      check bool "the body's exception" true (e = Failure "elaboration failed");
      List.iter
        (fun o -> check bool "every forcer gets that same exception" true
            (match o with Some e' -> e' == e | None -> false))
        rest
  | _ -> Alcotest.fail "domain 0 must see the exception"

(* The [dse --transfo] shape: a derived lazy whose body forces its base,
   forced from two domains while a third forces the base directly. *)
let test_derived_force () =
  let waiting = Atomic.make 0 in
  let base =
    lazy
      (while Atomic.get waiting < 3 do
         Domain.cpu_relax ()
       done;
       ref 1)
  in
  let derived = lazy (Core.Design.force base, ref 2) in
  let got =
    race 3 (fun i ->
        Atomic.incr waiting;
        if i = 2 then (Core.Design.force base, ref 0)
        else Core.Design.force derived)
  in
  match got with
  | [ (b1, d1); (b2, d2); (b3, _) ] ->
      check bool "one derived value" true (d1 == d2);
      check bool "one base value" true (b1 == b2 && b2 == b3)
  | _ -> Alcotest.fail "three results"

let test_self_recursive_force () =
  let rec l = lazy (Core.Design.force l + 1) in
  (match Core.Design.force l with
  | _ -> Alcotest.fail "a self-recursive force must raise"
  | exception Lazy.Undefined -> ());
  check int "other lazies still force" 3 (Core.Design.force (lazy 3))

(* ---------------- the pool itself ---------------- *)

let test_map_preserves_order () =
  let xs = List.init 100 Fun.id in
  check (Alcotest.list int) "squares in order"
    (List.map (fun x -> x * x) xs)
    (Core.Parallel.map ~jobs:4 (fun x -> x * x) xs);
  check (Alcotest.list int) "jobs=1 inline"
    (List.map succ xs)
    (Core.Parallel.map ~jobs:1 succ xs);
  check (Alcotest.list int) "more jobs than items" [ 4; 9 ]
    (Core.Parallel.map ~jobs:16 (fun x -> x * x) [ 2; 3 ])

let test_map_empty_and_env () =
  check (Alcotest.list int) "empty" [] (Core.Parallel.map ~jobs:4 succ []);
  check bool "default_jobs positive" true (Core.Parallel.default_jobs () >= 1)

let test_pool_survives_raising_job () =
  let xs = List.init 50 Fun.id in
  (* The first failure propagates to the caller... *)
  (match
     Core.Parallel.map ~jobs:3
       (fun x -> if x = 17 then failwith "boom" else x)
       xs
   with
  | _ -> Alcotest.fail "expected the job's exception"
  | exception Failure m -> check Alcotest.string "exn text" "boom" m);
  (* ...and the engine stays usable afterwards: no deadlock, no poisoned
     state. *)
  check (Alcotest.list int) "pool reusable after failure"
    (List.map succ xs)
    (Core.Parallel.map ~jobs:3 succ xs)

(* ---------------- keep-going map ---------------- *)

let test_map_result_order_and_capture () =
  let xs = List.init 40 Fun.id in
  let run jobs =
    Core.Parallel.map_result ~jobs
      (fun x -> if x mod 7 = 3 then failwith (string_of_int x) else x * 2)
      xs
  in
  let examine rs =
    check int "one slot per item" 40 (List.length rs);
    List.iteri
      (fun i r ->
        match r with
        | Ok v ->
            check bool "slot should have failed" false (i mod 7 = 3);
            check int "value in input order" (i * 2) v
        | Error (Failure m, _) ->
            check bool "slot should have survived" true (i mod 7 = 3);
            check int "exception captured in its own slot" i (int_of_string m)
        | Error _ -> Alcotest.fail "wrong exception captured")
      rs
  in
  examine (run 4);
  (* The inline path has the same per-slot semantics. *)
  examine (run 1)

let test_map_result_runs_everything () =
  (* No abort: every item executes even when an early one raises. *)
  let ran = Atomic.make 0 in
  let rs =
    Core.Parallel.map_result ~jobs:3
      (fun x ->
        Atomic.incr ran;
        if x = 0 then failwith "first";
        x)
      (List.init 30 Fun.id)
  in
  check int "every job ran" 30 (Atomic.get ran);
  check int "every slot filled" 30 (List.length rs)

(* ---------------- the shared memo cache ---------------- *)

module Memo_ref = Core.Parallel.Memo (struct
  type t = int ref
end)

let test_memo_race_first_store_wins () =
  Memo_ref.clear ();
  (* Both domains pass the barrier before either calls the cache, so the
     two computations genuinely race on one missing key. *)
  let entered = Atomic.make 0 in
  let contender id =
    Domain.spawn (fun () ->
        Atomic.incr entered;
        while Atomic.get entered < 2 do
          Domain.cpu_relax ()
        done;
        Memo_ref.find_or_compute ~key:"race" (fun () -> ref id))
  in
  let a = contender 1 and b = contender 2 in
  let ra = Domain.join a and rb = Domain.join b in
  check bool "both callers get one canonical value" true (ra == rb);
  check bool "the canonical value is one of the computed ones" true
    (!ra = 1 || !ra = 2);
  check int "losing store is discarded" 1 (Memo_ref.size ());
  (* A later hit returns the same canonical value. *)
  check bool "hit is physically the stored value" true
    (Memo_ref.find_or_compute ~key:"race" (fun () -> ref 99) == ra);
  Memo_ref.clear ()

(* Four domains miss on one key together: the computation runs once and
   every caller gets its value.  A raising computation is not cached. *)
let test_memo_once_per_key () =
  Memo_ref.clear ();
  let runs = Atomic.make 0 in
  let results =
    race 4 (fun _ ->
        Memo_ref.find_or_compute ~key:"once" (fun () ->
            Atomic.incr runs;
            (* stay in flight long enough for every caller to miss *)
            Unix.sleepf 0.05;
            ref 7))
  in
  check int "f ran once" 1 (Atomic.get runs);
  check bool "every caller got the one value" true
    (List.for_all (fun r -> r == List.hd results) results);
  (match
     Memo_ref.find_or_compute ~key:"fails" (fun () -> failwith "boom")
   with
  | _ -> Alcotest.fail "the raising thunk must raise"
  | exception Failure _ -> ());
  check bool "a failure is not cached" false (Memo_ref.mem "fails");
  check int "a later call computes again" 3
    !(Memo_ref.find_or_compute ~key:"fails" (fun () -> ref 3));
  Memo_ref.clear ()

(* ---------------- fig1 determinism ---------------- *)

let tools = [ Core.Design.Verilog; Core.Design.Chisel; Core.Design.Dslx ]

let points_flat series =
  List.concat_map (fun (s : Core.Fig1.series) -> s.Core.Fig1.points) series

let test_fig1_parallel_equals_sequential () =
  Core.Fig1.clear_cache ();
  Core.Evaluate.clear_measure_cache ();
  let seq, _ = Core.Fig1.compute ~jobs:1 ~tools () in
  Core.Fig1.clear_cache ();
  Core.Evaluate.clear_measure_cache ();
  let par, _ = Core.Fig1.compute ~jobs:4 ~tools () in
  check int "same series count" (List.length seq) (List.length par);
  List.iter2
    (fun (a : Core.Fig1.series) (b : Core.Fig1.series) ->
      check bool "same tool" true (a.Core.Fig1.tool = b.Core.Fig1.tool))
    seq par;
  check bool "points equal point-for-point" true
    (points_flat seq = points_flat par)

let test_fig1_cache_hit_identical () =
  Core.Fig1.clear_cache ();
  Core.Evaluate.clear_measure_cache ();
  let first, _ = Core.Fig1.compute ~jobs:2 ~tools () in
  let second, _ = Core.Fig1.compute ~jobs:2 ~tools () in
  (* The cache returns the very same series values, not recomputations. *)
  List.iter2
    (fun (a : Core.Fig1.series) b ->
      check bool "physically identical series" true (a == b))
    first second

(* ---------------- measurement cache ---------------- *)

let test_measure_cache () =
  Core.Evaluate.clear_measure_cache ();
  let d = Core.Registry.initial Core.Design.Verilog in
  let m1 = Core.Evaluate.measure ~spec:Core.Flow.idct_spec ~matrices:3 d in
  let m2 = Core.Evaluate.measure ~spec:Core.Flow.idct_spec ~matrices:3 d in
  check bool "cache hit is the same measurement" true (m1 == m2);
  Core.Evaluate.clear_measure_cache ();
  let m3 = Core.Evaluate.measure ~spec:Core.Flow.idct_spec ~matrices:3 d in
  check bool "recomputation is structurally equal" true (m1 = m3)

(* ---------------- the fixed LOC counter ---------------- *)

let test_loc_multiline_verilog () =
  let src =
    "// header\nmodule m;\n/* multi\n   line\n   comment */\nwire x;\nendmodule\n"
  in
  check int "verilog multi-line block" 3 (Core.Loc.count src);
  (* A sensitivity list is not a comment opener. *)
  check int "always @(*) is code" 3
    (Core.Loc.count "always @(*) begin\n  x = 1;\nend\n")

let test_loc_multiline_c () =
  let src =
    "int f() {\n  /* spans\n     two lines */ int y = 0;\n  (*p)++;\n  return y; /* tail */\n}\n"
  in
  (* Interior comment text never counts; the closer line counts because
     code follows the closer; mid-line paren-star is a pointer deref. *)
  check int "c multi-line block" 5 (Core.Loc.count src);
  check int "string literal is opaque" 2
    (Core.Loc.count "s = \"/* not a comment\";\nx;\n")

let test_loc_multiline_bsv () =
  let src = "(* synthesize,\n   always_ready *)\nrule r;\nendrule\n" in
  check int "bsv attribute block" 2 (Core.Loc.count src);
  check int "nested ocaml-style" 1
    (Core.Loc.count "(* outer (* inner *)\n   still comment *)\ncode;\n")

let test_loc_alpha_consistency () =
  (* The Table II LOC decomposition survives the counter fix: parts stay
     positive and sum to the total for every registered design. *)
  List.iter
    (fun (d : Core.Design.t) ->
      check bool "fu loc positive" true (d.Core.Design.loc_fu > 0);
      check int "parts sum"
        (Core.Design.loc d)
        (d.Core.Design.loc_fu + d.Core.Design.loc_axi + d.Core.Design.loc_conf))
    (Core.Registry.all_designs ())

let () =
  Alcotest.run "parallel"
    [
      ( "force",
        [
          Alcotest.test_case "4 domains force every design" `Slow
            test_concurrent_design_force;
          Alcotest.test_case "raising lazy shared" `Quick
            test_raising_force_shared;
          Alcotest.test_case "derived lazy forces its base" `Quick
            test_derived_force;
          Alcotest.test_case "self-recursive force raises" `Quick
            test_self_recursive_force;
        ] );
      ( "pool",
        [
          Alcotest.test_case "map preserves order" `Quick
            test_map_preserves_order;
          Alcotest.test_case "empty and defaults" `Quick test_map_empty_and_env;
          Alcotest.test_case "survives raising job" `Quick
            test_pool_survives_raising_job;
          Alcotest.test_case "map_result order and capture" `Quick
            test_map_result_order_and_capture;
          Alcotest.test_case "map_result runs everything" `Quick
            test_map_result_runs_everything;
        ] );
      ( "memo",
        [
          Alcotest.test_case "first store wins" `Quick
            test_memo_race_first_store_wins;
          Alcotest.test_case "once per key, failures not cached" `Quick
            test_memo_once_per_key;
        ] );
      ( "fig1",
        [
          Alcotest.test_case "parallel = sequential" `Slow
            test_fig1_parallel_equals_sequential;
          Alcotest.test_case "cache hit identical" `Slow
            test_fig1_cache_hit_identical;
        ] );
      ( "cache",
        [ Alcotest.test_case "measure memoized" `Quick test_measure_cache ] );
      ( "loc",
        [
          Alcotest.test_case "verilog multi-line" `Quick
            test_loc_multiline_verilog;
          Alcotest.test_case "c multi-line" `Quick test_loc_multiline_c;
          Alcotest.test_case "bsv attributes" `Quick test_loc_multiline_bsv;
          Alcotest.test_case "decomposition intact" `Quick
            test_loc_alpha_consistency;
        ] );
    ]
