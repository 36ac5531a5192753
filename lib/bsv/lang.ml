type expr =
  | Const of Hw.Bits.t
  | Read of reg
  | In of string * int
  | Unop of Hw.Netlist.unop * expr
  | Binop of Hw.Netlist.binop * expr * expr
  | Mux of expr * expr * expr
  | Slice of expr * int * int
  | Uext of expr * int
  | Sext of expr * int

and reg = { rid : int; rname : string; rwidth : int; rinit : int }

type action = { target : reg; when_ : expr option; value : expr }

type rule = { rule_name : string; guard : expr; actions : action list }

type modul = {
  mod_name : string;
  inputs : (string * int) list;
  regs : reg list;
  rules : rule list;
  outputs : (string * expr) list;
}

let rec infer_width = function
  | Const b -> Hw.Bits.width b
  | Read r -> r.rwidth
  | In (_, w) -> w
  | Unop (_, e) -> infer_width e
  | Binop ((Eq | Ne | Lt _ | Le _), a, b) ->
      let wa = infer_width a and wb = infer_width b in
      if wa <> wb then
        failwith
          (Printf.sprintf "Bsv: comparison width mismatch (%d vs %d)" wa wb);
      1
  | Binop ((Shl | Shr | Sra), a, _) -> infer_width a
  | Binop (_, a, b) ->
      let wa = infer_width a and wb = infer_width b in
      if wa <> wb then
        failwith (Printf.sprintf "Bsv: operand width mismatch (%d vs %d)" wa wb);
      wa
  | Mux (s, a, b) ->
      if infer_width s <> 1 then failwith "Bsv: mux select must be 1 bit";
      let wa = infer_width a and wb = infer_width b in
      if wa <> wb then
        failwith (Printf.sprintf "Bsv: mux arm width mismatch (%d vs %d)" wa wb);
      wa
  | Slice (e, hi, lo) ->
      let w = infer_width e in
      if lo < 0 || hi >= w || hi < lo then
        failwith (Printf.sprintf "Bsv: slice [%d:%d] of width %d" hi lo w);
      hi - lo + 1
  | Uext (e, w) | Sext (e, w) ->
      let we = infer_width e in
      if w < we then failwith "Bsv: extension narrows";
      w

let validate m =
  let seen = Hashtbl.create 16 in
  List.iter
    (fun r ->
      if Hashtbl.mem seen r.rid then
        failwith (Printf.sprintf "Bsv: duplicate register id %d" r.rid);
      Hashtbl.replace seen r.rid ())
    m.regs;
  let names = Hashtbl.create 16 in
  List.iter
    (fun (ru : rule) ->
      if Hashtbl.mem names ru.rule_name then
        failwith (Printf.sprintf "Bsv: duplicate rule %s" ru.rule_name);
      Hashtbl.replace names ru.rule_name ();
      if infer_width ru.guard <> 1 then
        failwith (Printf.sprintf "Bsv: rule %s guard is not 1 bit" ru.rule_name);
      List.iter
        (fun a ->
          (match a.when_ with
          | Some w ->
              if infer_width w <> 1 then
                failwith
                  (Printf.sprintf "Bsv: rule %s condition is not 1 bit"
                     ru.rule_name)
          | None -> ());
          let wv = infer_width a.value in
          if wv <> a.target.rwidth then
            failwith
              (Printf.sprintf "Bsv: rule %s writes %d bits into %s (%d bits)"
                 ru.rule_name wv a.target.rname a.target.rwidth))
        ru.actions)
    m.rules;
  List.iter (fun (_, e) -> ignore (infer_width e)) m.outputs

module Shared = Hashtbl.Make (struct
  type t = expr

  let equal = ( == )
  let hash = Hashtbl.hash
end)

(* Each shared subexpression is visited once: the DAGs of a real design
   have far more tree paths than nodes. *)
let rec expr_reads seen acc e =
  if Shared.mem seen e then acc
  else begin
    Shared.add seen e ();
    let go = expr_reads seen in
    match e with
    | Const _ | In _ -> acc
    | Read r -> r.rid :: acc
    | Unop (_, e) | Slice (e, _, _) | Uext (e, _) | Sext (e, _) -> go acc e
    | Binop (_, a, b) -> go (go acc a) b
    | Mux (s, a, b) -> go (go (go acc s) a) b
  end

let dedup l = List.sort_uniq Int.compare l

let read_set (ru : rule) =
  let expr_reads = expr_reads (Shared.create 64) in
  let acc = expr_reads [] ru.guard in
  let acc =
    List.fold_left
      (fun acc a ->
        let acc = expr_reads acc a.value in
        match a.when_ with Some w -> expr_reads acc w | None -> acc)
      acc ru.actions
  in
  dedup acc

let write_set (ru : rule) = dedup (List.map (fun a -> a.target.rid) ru.actions)

type builder = {
  bname : string;
  mutable next_rid : int;
  mutable bregs : reg list;
  mutable binputs : (string * int) list;
  mutable brules : rule list;
  mutable bouts : (string * expr) list;
}

let builder bname =
  { bname; next_rid = 0; bregs = []; binputs = []; brules = []; bouts = [] }

let mk_reg b ?(init = 0) rname rwidth =
  let r = { rid = b.next_rid; rname; rwidth; rinit = init } in
  b.next_rid <- b.next_rid + 1;
  b.bregs <- r :: b.bregs;
  r

let mk_input b name w =
  if not (List.mem_assoc name b.binputs) then
    b.binputs <- b.binputs @ [ (name, w) ];
  In (name, w)

let mk_rule b name ~guard actions =
  b.brules <- b.brules @ [ { rule_name = name; guard; actions } ]

let mk_output b name e = b.bouts <- b.bouts @ [ (name, e) ]

let mk_module b =
  let m =
    {
      mod_name = b.bname;
      inputs = b.binputs;
      regs = List.rev b.bregs;
      rules = b.brules;
      outputs = b.bouts;
    }
  in
  validate m;
  m

let cst w v = Const (Hw.Bits.create ~width:w v)
let ( &&: ) a b = Binop (Hw.Netlist.And, a, b)
let ( ||: ) a b = Binop (Hw.Netlist.Or, a, b)
let not_ a = Unop (Hw.Netlist.Not, a)
let ( ==: ) a b = Binop (Hw.Netlist.Eq, a, b)
let ( <>: ) a b = Binop (Hw.Netlist.Ne, a, b)
let ( +: ) a b = Binop (Hw.Netlist.Add, a, b)
let ( -: ) a b = Binop (Hw.Netlist.Sub, a, b)
let assign ?when_ target value = { target; when_; value }
