open Hw

type result = {
  outputs : Block.t list;
  latency : int;
  periodicity : int;
  cycles : int;
  violations : Monitor.violation list;
}

let sign_extend w v =
  if v land (1 lsl (w - 1)) <> 0 then v - (1 lsl w) else v

type engine = Compiled | Reference

(* The engine as a record of the four operations the testbench needs,
   lane-indexed.  [Compiled] is [Hw.Sim] (the default, and the historical
   behavior) — one levelized instance whose batch dimension carries all
   lanes, advanced by a single [step].  [Reference] is the retained
   interpreter, kept drivable end to end so the flow can degrade onto it
   when the compiled engine fails on a design (see Core.Flow); it has no
   batch dimension, so it becomes one instance per lane stepped in
   lockstep. *)
type ops = {
  ops_set : int -> string -> int -> unit;
  ops_get : int -> string -> int;
  ops_step : unit -> unit;
  ops_schedule : string * int;  (* hook counter name and value *)
}

let ops_of_engine engine circuit lanes =
  match engine with
  | Compiled ->
      let sim = Sim.create ~batch:lanes circuit in
      Sim.reset sim;
      {
        ops_set = (fun lane -> Sim.set ~lane sim);
        ops_get = (fun lane -> Sim.get ~lane sim);
        ops_step = (fun () -> Sim.step sim);
        ops_schedule = ("sim_thunks", Sim.compiled_nodes sim);
      }
  | Reference ->
      let sims = Array.init lanes (fun _ -> Interp.create circuit) in
      Array.iter Interp.reset sims;
      {
        ops_set = (fun lane -> Interp.set sims.(lane));
        ops_get = (fun lane -> Interp.get sims.(lane));
        ops_step = (fun () -> Array.iter Interp.step sims);
        ops_schedule = ("interp_nodes", Netlist.num_nodes circuit);
      }

let run ?(engine = Compiled) ?(batch = 1) ?(input_gap = 0)
    ?(ready_pattern = fun _ -> true) ?timeout ?(hook = fun _ _ -> ()) circuit
    matrices =
  if not (Stream.is_wrapped circuit) then
    failwith "Driver.run: circuit does not follow the AXI-Stream convention";
  if batch < 1 then invalid_arg "Driver.run: batch must be >= 1";
  let n_mat = List.length matrices in
  let lanes = Stream.lanes in
  (* Matrices are split across simulation lanes in contiguous chunks, so
     lane outputs concatenate back in order.  Every lane runs its own
     independent copy of the testbench below; only the clock is shared. *)
  let n_lanes = max 1 (min batch n_mat) in
  let chunk_start = Array.make n_lanes 0 and chunk_len = Array.make n_lanes 0 in
  let base = n_mat / n_lanes and rem = n_mat mod n_lanes in
  let pos = ref 0 in
  for l = 0 to n_lanes - 1 do
    chunk_start.(l) <- !pos;
    chunk_len.(l) <- (base + if l < rem then 1 else 0);
    pos := !pos + chunk_len.(l)
  done;
  let per_lane = if n_lanes = 0 then 0 else base + (if rem > 0 then 1 else 0) in
  (* The base budget assumes the consumer is always ready and is sized by
     the longest lane, not the whole stream — each lane only has to drain
     its own chunk.  A slow but correct [ready_pattern] stretches the
     drain phase by the inverse of its duty cycle, so sample the pattern
     over a window and scale the default accordingly (patterns are pure
     functions of the cycle number).  The duty cycle is clamped so that a
     pattern that is never ready in the sample still terminates. *)
  let duty =
    let window = 1024 in
    let ready = ref 0 in
    for c = 0 to window - 1 do
      if ready_pattern c then incr ready
    done;
    Float.max 0.01 (float_of_int !ready /. float_of_int window)
  in
  let timeout =
    match timeout with
    | Some t -> t
    | None ->
        let base = (200 * per_lane) + 2000 + (input_gap * per_lane) in
        int_of_float (ceil (float_of_int base /. duty))
  in
  let sim = ops_of_engine engine circuit n_lanes in
  (let name, v = sim.ops_schedule in
   hook name v);
  if n_lanes > 1 then hook "sim_batch" n_lanes;
  let inputs = Array.of_list matrices in
  (* Per-lane testbench state.  [mat_idx] is the absolute index into
     [inputs]; a lane is done when it reaches the end of its chunk. *)
  let mat_idx = Array.init n_lanes (fun l -> chunk_start.(l)) in
  let beat_idx = Array.make n_lanes 0 and gap_left = Array.make n_lanes 0 in
  let collected = Array.make n_lanes [] in
  let current_rows = Array.make n_lanes [] in
  let first_in_cycle = Array.make n_mat (-1) in
  let last_out_cycle = Array.make n_mat (-1) in
  let out_mat = Array.make n_lanes 0 in
  let traces = Array.make n_lanes [] in
  let cycle = ref 0 in
  let all_done () =
    let d = ref true in
    for l = 0 to n_lanes - 1 do
      if out_mat.(l) < chunk_len.(l) then d := false
    done;
    !d
  in
  while (not (all_done ())) && !cycle < timeout do
    let ready = ready_pattern !cycle in
    (* Drive inputs for this cycle, every lane. *)
    for l = 0 to n_lanes - 1 do
      let lane_end = chunk_start.(l) + chunk_len.(l) in
      let driving = mat_idx.(l) < lane_end && gap_left.(l) = 0 in
      sim.ops_set l Stream.s_valid (if driving then 1 else 0);
      sim.ops_set l Stream.s_last
        (if driving && beat_idx.(l) = lanes - 1 then 1 else 0);
      for c = 0 to lanes - 1 do
        let v =
          if driving then
            Block.get inputs.(mat_idx.(l)) ~row:beat_idx.(l) ~col:c
          else 0
        in
        sim.ops_set l (Stream.s_data c) v
      done;
      sim.ops_set l Stream.m_ready (if ready then 1 else 0)
    done;
    (* Observe handshakes, every lane. *)
    for l = 0 to n_lanes - 1 do
      let lane_end = chunk_start.(l) + chunk_len.(l) in
      let driving = mat_idx.(l) < lane_end && gap_left.(l) = 0 in
      let s_ready = sim.ops_get l Stream.s_ready = 1 in
      let m_valid = sim.ops_get l Stream.m_valid = 1 in
      let m_last = sim.ops_get l Stream.m_last = 1 in
      let data =
        Array.init lanes (fun c ->
            sign_extend Stream.out_width (sim.ops_get l (Stream.m_data c)))
      in
      traces.(l) <-
        {
          Monitor.cycle = !cycle;
          valid = m_valid;
          ready;
          last = m_last;
          data;
        }
        :: traces.(l);
      if driving && s_ready then begin
        if beat_idx.(l) = 0 then first_in_cycle.(mat_idx.(l)) <- !cycle;
        beat_idx.(l) <- beat_idx.(l) + 1;
        if beat_idx.(l) = lanes then begin
          beat_idx.(l) <- 0;
          mat_idx.(l) <- mat_idx.(l) + 1;
          gap_left.(l) <- input_gap
        end
      end
      else if (not driving) && gap_left.(l) > 0 then
        gap_left.(l) <- gap_left.(l) - 1;
      if m_valid && ready then begin
        current_rows.(l) <- Array.copy data :: current_rows.(l);
        if List.length current_rows.(l) = lanes then begin
          let rows = Array.of_list (List.rev current_rows.(l)) in
          collected.(l) <- Block.of_rows rows :: collected.(l);
          if out_mat.(l) < chunk_len.(l) then
            last_out_cycle.(chunk_start.(l) + out_mat.(l)) <- !cycle;
          out_mat.(l) <- out_mat.(l) + 1;
          current_rows.(l) <- []
        end
      end
    done;
    sim.ops_step ();
    incr cycle
  done;
  if not (all_done ()) then begin
    let sum f =
      let s = ref 0 in
      for l = 0 to n_lanes - 1 do
        s := !s + f l
      done;
      !s
    in
    failwith
      (Printf.sprintf
         "Driver.run(%s): timeout after %d cycles (duty %.2f, batch %d) — \
          collected %d/%d output beats (%d/%d matrices), consumed %d/%d \
          input beats"
         circuit.Netlist.circuit_name !cycle duty n_lanes
         (sum (fun l -> (out_mat.(l) * lanes) + List.length current_rows.(l)))
         (n_mat * lanes)
         (sum (fun l -> out_mat.(l)))
         n_mat
         (sum (fun l ->
              ((mat_idx.(l) - chunk_start.(l)) * lanes) + beat_idx.(l)))
         (n_mat * lanes))
  end;
  hook "cycles" !cycle;
  (* Latency is measured on the final matrix; periodicity between the last
     two matrices of the lane holding it (contiguous chunks put them in
     the same lane whenever that lane has >= 2).  At batch 1 both reduce
     to the historical single-stream definitions. *)
  let latency =
    let last = n_mat - 1 in
    last_out_cycle.(last) - first_in_cycle.(last) + 1
  in
  let last_lane = n_lanes - 1 in
  let periodicity =
    if chunk_len.(last_lane) >= 2 then
      first_in_cycle.(n_mat - 1) - first_in_cycle.(n_mat - 2)
    else latency
  in
  let outputs =
    List.concat
      (List.init n_lanes (fun l -> List.rev collected.(l)))
  in
  let violations =
    List.concat
      (List.init n_lanes (fun l -> Monitor.check (List.rev traces.(l))))
  in
  { outputs; latency; periodicity; cycles = !cycle; violations }

let transform circuit matrix =
  match (run circuit [ matrix ]).outputs with
  | [ out ] -> out
  | _ -> assert false

(* Bulk variant of [transform]: each matrix is an independent fresh-reset
   single-matrix run, so it maps onto the batch dimension directly — one
   lane per matrix, capped per simulator instance to bound the value
   array.  Outputs are byte-for-byte what per-matrix [transform] calls
   would return. *)
let max_transform_lanes = 64

let transform_batch ?hook circuit matrices =
  let rec chunks = function
    | [] -> []
    | l ->
        let rec take n acc = function
          | rest when n = 0 -> (List.rev acc, rest)
          | [] -> (List.rev acc, [])
          | x :: rest -> take (n - 1) (x :: acc) rest
        in
        let c, rest = take max_transform_lanes [] l in
        c :: chunks rest
  in
  List.concat_map
    (fun chunk ->
      (run ?hook ~batch:(List.length chunk) circuit chunk).outputs)
    (chunks matrices)
