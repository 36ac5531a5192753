open Hw

type tracer = {
  wrap : 'a. design:string -> stage:string -> (unit -> 'a) -> 'a;
  counter : string -> int -> unit;
}

let null_tracer = { wrap = (fun ~design:_ ~stage:_ f -> f ()); counter = (fun _ _ -> ()) }
let tracer = ref null_tracer
let set_tracer t = tracer := t

type error =
  | Unknown_transfo of string
  | Precondition_failed of { pf_step : string; pf_reason : string }
  | Verify_failed of {
      vf_step : string;
      vf_obligation : string;
      vf_reason : string;
    }

let error_to_string = function
  | Unknown_transfo nm -> Catalog.unknown_transfo_msg nm
  | Precondition_failed { pf_step; pf_reason } ->
      Printf.sprintf "step %S not applicable: %s" pf_step pf_reason
  | Verify_failed { vf_step; vf_obligation; vf_reason } ->
      Printf.sprintf "step %S failed verification (%s): %s" vf_step
        vf_obligation vf_reason

type step_report = {
  sr_step : string;
  sr_obligation : string;
  sr_nodes_before : int;
  sr_nodes_after : int;
}

type report = { rep_subject : Subject.t; rep_steps : step_report list }

let verify ~cycles ~seed ob ~before ~after =
  match Verify.discharge ~cycles ~seed ob ~before ~after with
  | Error _ as e -> e
  | Ok () -> (
      (* the step-specific obligation relates before and after; the
         crosschecks establish that the engine simulates the result itself
         exactly as the reference interpreter does, at batch 1 (its own
         specialized sweep) and across 4 lanes *)
      let c = after.Subject.circuit in
      match Equiv.crosscheck ~cycles ~seed c with
      | Equiv.Mismatch _ as r ->
          Error (Format.asprintf "crosscheck: %a" Equiv.pp_result r)
      | Equiv.Equivalent -> (
          match
            Equiv.crosscheck ~cycles:(max 32 (cycles / 2)) ~seed ~lanes:4 c
          with
          | Equiv.Mismatch _ as r ->
              Error (Format.asprintf "batch crosscheck: %a" Equiv.pp_result r)
          | Equiv.Equivalent -> Ok ()))

let apply_step ?(cycles = 256) ?(seed = 7) (module T : Catalog.TRANSFO) ~arg
    (subject : Subject.t) =
  let tr = !tracer in
  let step_str =
    Script.step_to_string { Script.step_name = T.name; step_arg = arg }
  in
  let design = "transfo/" ^ subject.Subject.circuit.Netlist.circuit_name in
  match T.check ~arg subject with
  | Error reason ->
      Error (Precondition_failed { pf_step = step_str; pf_reason = reason })
  | Ok () -> (
      let fail ob reason =
        Error
          (Verify_failed
             { vf_step = step_str; vf_obligation = ob; vf_reason = reason })
      in
      match
        tr.wrap ~design ~stage:("transfo:" ^ T.name) (fun () ->
            T.apply ~arg subject)
      with
      | exception (Failure msg | Invalid_argument msg) -> fail "apply" msg
      | after -> (
          let ob = Verify.obligation_name (T.obligation ~arg) in
          match
            tr.wrap ~design ~stage:"transfo:verify" (fun () ->
                tr.counter "verify_cycles" cycles;
                verify ~cycles ~seed (T.obligation ~arg) ~before:subject
                  ~after)
          with
          | exception (Failure msg | Invalid_argument msg) -> fail ob msg
          | Error reason -> fail ob reason
          | Ok () ->
              tr.counter "transfo_nodes"
                (Netlist.num_nodes after.Subject.circuit);
              let after =
                {
                  after with
                  Subject.history = subject.Subject.history @ [ step_str ];
                }
              in
              Ok
                ( after,
                  {
                    sr_step = step_str;
                    sr_obligation = ob;
                    sr_nodes_before =
                      Netlist.num_nodes subject.Subject.circuit;
                    sr_nodes_after = Netlist.num_nodes after.Subject.circuit;
                  } )))

let run ?cycles ?seed (script : Script.t) subject =
  let rec go subj acc = function
    | [] -> Ok { rep_subject = subj; rep_steps = List.rev acc }
    | (st : Script.step) :: rest -> (
        match Catalog.find st.Script.step_name with
        | None -> Error (Unknown_transfo st.Script.step_name)
        | Some m -> (
            match apply_step ?cycles ?seed m ~arg:st.Script.step_arg subj with
            | Error _ as e -> e
            | Ok (subj', rep) -> go subj' (rep :: acc) rest))
  in
  go subject [] script
