type result =
  | Equivalent
  | Mismatch of { cycle : int; port : string; a : int; b : int }

(* Uniform w-bit draw composed from 30-bit chunks.  [Random.State.int]
   cannot produce bounds >= 2^30 (it raises) and would in any case leave
   bits >= 30 of a wide port permanently at 0 — exactly the width band
   where masking bugs live — so wide ports compose several [bits] draws. *)
let rec draw rng w =
  if w <= 30 then Random.State.bits rng land ((1 lsl w) - 1)
  else (draw rng (w - 30) lsl 30) lor Random.State.bits rng

let check ?(cycles = 64) ?(seed = 42) ?(settle = 0) (ca : Netlist.t)
    (cb : Netlist.t) =
  let ports c =
    List.map (fun (nm, u) -> (nm, (Netlist.node c u).Netlist.width)) c.Netlist.inputs
  in
  if ports ca <> ports cb then
    invalid_arg "Equiv.check: input ports differ";
  let outs c =
    List.map (fun (nm, u) -> (nm, (Netlist.node c u).Netlist.width)) c.Netlist.outputs
  in
  if outs ca <> outs cb then invalid_arg "Equiv.check: output ports differ";
  let sa = Sim.create ca and sb = Sim.create cb in
  let ins = Array.of_list (ports ca) and outs = Array.of_list (outs ca) in
  let resolve f sim ps = Array.map (fun (nm, _) -> f sim nm) ps in
  let ia = resolve Sim.input_port sa ins and ib = resolve Sim.input_port sb ins in
  let oa = resolve Sim.output_port sa outs
  and ob = resolve Sim.output_port sb outs in
  let rng = Random.State.make [| seed |] in
  let result = ref Equivalent in
  (try
     for cycle = 0 to cycles - 1 do
       Array.iteri
         (fun i (_, w) ->
           let v = draw rng w in
           Sim.set_port sa ia.(i) ~lane:0 v;
           Sim.set_port sb ib.(i) ~lane:0 v)
         ins;
       if cycle >= settle then
         Array.iteri
           (fun i (nm, _) ->
             let a = Sim.get_port sa oa.(i) ~lane:0
             and b = Sim.get_port sb ob.(i) ~lane:0 in
             if a <> b then begin
               result := Mismatch { cycle; port = nm; a; b };
               raise Exit
             end)
           outs;
       Sim.step sa;
       Sim.step sb
     done
   with Exit -> ());
  !result

(* Shared stimulus for the crosschecks: 62 random bits with occasional
   all-ones / sign-bit extremes (the engines mask to port width on set). *)
let wide_random rng =
  match Random.State.int rng 8 with
  | 0 -> -1
  | 1 -> 1 lsl 61
  | _ ->
      Random.State.bits rng
      lor (Random.State.bits rng lsl 30)
      lor (Random.State.bits rng lsl 60)

(* Random cross-check of the levelized engine ([Sim], with [lanes]
   lanes) against [lanes] independent reference interpreters, each lane
   driven by its own random stream.  Outputs and register state are
   compared every cycle; at the end every node (including logic the
   engine eliminated as dead) and every memory word.  With several lanes
   this also catches lane-indexing bugs (cross-lane bleed, shared state
   that should be per-lane). *)
let crosscheck ?(cycles = 1000) ?(seed = 7) ?(lanes = 1) (c : Netlist.t) =
  if lanes < 1 then invalid_arg "Equiv.crosscheck: lanes must be >= 1";
  let sim = Sim.create ~batch:lanes c in
  let refs = Array.init lanes (fun _ -> Interp.create c) in
  let rngs =
    Array.init lanes (fun l -> Random.State.make [| seed; 0x5eed; l |])
  in
  let ins = Array.of_list (List.map fst c.Netlist.inputs) in
  let outs = Array.of_list (List.map fst c.Netlist.outputs) in
  let in_ports = Array.map (Sim.input_port sim) ins in
  let out_ports = Array.map (Sim.output_port sim) outs in
  let regs =
    Array.of_list
      (Array.to_list c.Netlist.nodes
      |> List.filter Netlist.is_reg
      |> List.map (fun (nd : Netlist.node) -> nd.Netlist.uid))
  in
  let result = ref Equivalent in
  (* The interpreter value is the reference [a], the engine's is [b]. *)
  let expect cycle l label a b =
    if a <> b then begin
      let port = Printf.sprintf "%s [lane %d]" (label ()) l in
      result := Mismatch { cycle; port; a; b };
      raise Exit
    end
  in
  let node_label u () = Printf.sprintf "n%d" u in
  let out_labels = Array.map (fun nm () -> nm) outs in
  let reg_labels = Array.map (fun u () -> "reg " ^ node_label u ()) regs in
  (try
     for cycle = 0 to cycles - 1 do
       for l = 0 to lanes - 1 do
         Array.iteri
           (fun i nm ->
             let v = wide_random rngs.(l) in
             Interp.set refs.(l) nm v;
             Sim.set_port sim in_ports.(i) ~lane:l v)
           ins
       done;
       for l = 0 to lanes - 1 do
         Array.iteri
           (fun i nm ->
             expect cycle l out_labels.(i) (Interp.get refs.(l) nm)
               (Sim.get_port sim out_ports.(i) ~lane:l))
           outs;
         Array.iteri
           (fun i u ->
             expect cycle l reg_labels.(i) (Interp.peek refs.(l) u)
               (Sim.peek ~lane:l sim u))
           regs
       done;
       Array.iter Interp.step refs;
       Sim.step sim
     done;
     (* Final architectural and combinational state, node by node — this
        exercises the engine's on-demand path for dead nodes. *)
     for l = 0 to lanes - 1 do
       for u = 0 to Netlist.num_nodes c - 1 do
         expect cycles l (node_label u) (Interp.peek refs.(l) u)
           (Sim.peek ~lane:l sim u)
       done;
       Array.iteri
         (fun mi (m : Netlist.mem) ->
           for ad = 0 to m.Netlist.mem_size - 1 do
             expect cycles l
               (fun () -> Printf.sprintf "%s[%d]" m.Netlist.mem_name ad)
               (Interp.mem_word refs.(l) mi ad)
               (Sim.mem_word ~lane:l sim mi ad)
           done)
         c.Netlist.mems
     done
   with Exit -> ());
  !result

let pp_result ppf = function
  | Equivalent -> Format.fprintf ppf "equivalent"
  | Mismatch { cycle; port; a; b } ->
      Format.fprintf ppf "mismatch at cycle %d on %s: %d vs %d" cycle port a b
