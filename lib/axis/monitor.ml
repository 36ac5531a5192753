type sample = {
  cycle : int;
  valid : bool;
  ready : bool;
  last : bool;
  data : int array;
}

type violation = { at_cycle : int; rule : string }

(* [stalled] says whether the previous cycle was a stalled beat, whose
   data and last are then in [held] and [held_last]: only a stall copies
   the caller's data. *)
type t = {
  mutable violations : violation list;  (* reversed *)
  mutable beats : int;
  mutable stalled : bool;
  mutable held : int array;
  mutable held_last : bool;
}

let create () =
  { violations = []; beats = 0; stalled = false; held = [||]; held_last = false }

let report m cycle rule =
  m.violations <- { at_cycle = cycle; rule } :: m.violations

let observe m ~cycle ~valid ~ready ~last ~data =
  if m.stalled then
    if not valid then report m cycle "m_valid deasserted while a beat was stalled"
    else begin
      if data <> m.held then
        report m cycle "m_data changed while a beat was stalled";
      if last <> m.held_last then
        report m cycle "m_last changed while a beat was stalled"
    end;
  if last && not valid then report m cycle "m_last asserted without m_valid";
  if valid && ready then begin
    m.beats <- m.beats + 1;
    let should_last = m.beats mod Stream.lanes = 0 in
    if last && not should_last then
      report m cycle
        (Printf.sprintf "m_last on beat %d (expected every %dth)" m.beats
           Stream.lanes);
    if should_last && not last then
      report m cycle (Printf.sprintf "missing m_last on beat %d" m.beats)
  end;
  m.stalled <- valid && not ready;
  if m.stalled then begin
    m.held <- Array.copy data;
    m.held_last <- last
  end

let finish m = List.rev m.violations

let check samples =
  let m = create () in
  List.iter
    (fun s ->
      observe m ~cycle:s.cycle ~valid:s.valid ~ready:s.ready ~last:s.last
        ~data:s.data)
    samples;
  finish m

let pp_violation ppf v =
  Format.fprintf ppf "cycle %d: %s" v.at_cycle v.rule
