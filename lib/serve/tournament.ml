type strategy = { s_name : string; transform : Network.t -> Network.t }

type verdict = Verified | Refuted of bool array | Failed of string

type candidate = {
  c_strategy : string;
  score : float;
  literals : int;
  c_verdict : verdict;
}

type promotion = {
  circuit : string;
  champion : string;
  champion_net : Network.t;
  champion_score : float;
  source_score : float;
  margin : float;
  candidates : candidate list;
  sat : Solver.stats;
}

(* Re-minimize every narrow local function through the two-level engine;
   unused fanins left behind by the minimizer are trimmed by cleanup. *)
let espresso_local memo net =
  List.iter
    (fun id ->
      if not (Network.is_input net id) then begin
        let fanins = Network.fanins net id in
        let k = List.length fanins in
        if k >= 1 && k <= 8 then begin
          let tt = Truth_table.of_expr k (Network.func net id) in
          let cover = Cover.of_truth_table tt in
          Network.replace_func net id
            (Cover.to_expr (Memo.minimize memo cover))
            fanins
        end
      end)
    (Network.node_ids net);
  ignore (Cleanup.run net);
  net

let default_strategies ?(memo = Memo.create ()) ?input_probs ?trace net =
  let probs =
    match input_probs with
    | Some p -> p
    | None -> Array.make (List.length (Network.inputs net)) 0.5
  in
  (* The measured strategy only exists when there is a trace to measure
     against; it re-synthesizes don't-care flexibility by installed-and-
     measured toggle counts instead of model probabilities. *)
  let measured =
    match trace with
    | None -> []
    | Some tr ->
      [
        {
          s_name = "measured";
          transform =
            (fun n ->
              ignore (Resynth.measured ~verify:`Off n ~trace:tr);
              ignore (Cleanup.run n);
              n);
        };
      ]
  in
  [
    { s_name = "source"; transform = (fun n -> n) };
    {
      s_name = "cleanup";
      transform =
        (fun n ->
          ignore (Cleanup.run n);
          n);
    };
    { s_name = "espresso"; transform = espresso_local memo };
    {
      s_name = "dontcare-area";
      transform =
        (fun n ->
          (* The tournament SAT-checks every candidate itself, so the
             pass-internal re-verification is redundant work here. *)
          ignore (Dontcare.optimize ~verify:`Off n Dontcare.For_area);
          ignore (Cleanup.run n);
          n);
    };
    {
      s_name = "dontcare-power";
      transform =
        (fun n ->
          ignore (Dontcare.optimize ~verify:`Off n (Dontcare.For_power probs));
          ignore (Cleanup.run n);
          n);
    };
    { s_name = "subject"; transform = Subject.decompose };
    {
      s_name = "subject-power";
      transform = (fun n -> Subject.decompose_for_power n ~input_probs:probs);
    };
    {
      s_name = "dualvth";
      transform =
        (fun n ->
          (* Map to cells, then size + assign Vth against the mapped
             netlist's own critical delay.  Infeasible timing fails the
             candidate — that is the feasibility gate before promotion;
             the SAT check below covers function like everyone else. *)
          let subj = Subject.decompose n in
          let act = Activity.zero_delay subj ~input_probs:probs in
          let m = Mapper.map ~verify:`Off subj (Mapper.Power act) in
          let r = Memo.dualvth memo m ~input_probs:probs in
          let ws = (Dualvth.final_step r).Dualvth.worst_slack in
          if ws < -1e-9 then
            failwith
              (Printf.sprintf "dualvth: timing infeasible (worst slack %g)"
                 ws);
          r.Dualvth.net);
    };
  ]
  @ measured

(* Leakage enters every score as equivalent switched capacitance: a
   score of S units means switching power 0.5 * unit_cap * S * V^2 * f
   at the default operating point, so leakage watts (I * V) divide back
   by that factor.  Networks without leak annotations — every strategy
   except dualvth — contribute exactly 0 and score as before. *)
let leak_units net =
  let p = Lowpower.Power_model.default_params in
  let unit_cap = 20.0e-15 in
  Network.total_leakage net
  /. (0.5 *. unit_cap *. p.Lowpower.Power_model.vdd
      *. p.Lowpower.Power_model.freq)

(* Capacitance-weighted settled (zero-delay) toggles per cycle over the
   trace, measured once per structure through the cache. *)
let measured_score memo net trace =
  Annotation.switched_capacitance (Memo.activity memo net ~trace)
  +. leak_units net

let estimated_score net ~input_probs =
  let act = Activity.zero_delay ~exact:false net ~input_probs in
  Activity.switched_capacitance net act +. leak_units net

let run ?(name = "circuit") ?strategies ?input_probs ?trace
    ?(memo = Memo.create ()) net =
  let probs =
    match input_probs with
    | Some p -> p
    | None -> Array.make (List.length (Network.inputs net)) 0.5
  in
  let roster =
    match strategies with
    | Some s -> s
    | None -> default_strategies ~memo ~input_probs:probs ?trace net
  in
  let score n =
    match trace with
    | Some tr -> measured_score memo n tr
    | None -> estimated_score n ~input_probs:probs
  in
  let source_score = score net in
  (* Opened on the first cache miss: a tournament whose verdicts all come
     from [memo] never encodes the source. *)
  let sess = ref None in
  let session () =
    match !sess with
    | Some s -> s
    | None ->
      let s = Cec.session net in
      sess := Some s;
      s
  in
  let verify cand_net =
    match
      Memo.check_with memo net cand_net (fun () ->
          Cec.session_check (session ()) cand_net)
    with
    | Cec.Equivalent -> Verified
    | Cec.Counterexample v -> Refuted v
  in
  let field =
    List.map
      (fun s ->
        match
          let cand_net = s.transform (Network.copy net) in
          let sc = score cand_net in
          let verdict = verify cand_net in
          ( { c_strategy = s.s_name; score = sc;
              literals = Network.literal_count cand_net; c_verdict = verdict },
            Some cand_net )
        with
        | c -> c
        | exception e ->
          ( { c_strategy = s.s_name; score = infinity; literals = 0;
              c_verdict = Failed (Printexc.to_string e) },
            None ))
      roster
  in
  let verified =
    List.filter_map
      (fun (c, n) ->
        match (c.c_verdict, n) with
        | Verified, Some n -> Some (c, n)
        | _ -> None)
      field
  in
  match verified with
  | [] -> invalid_arg "Tournament.run: no strategy produced a verified candidate"
  | first :: rest ->
    (* Strict < keeps roster order as the deterministic tie-break. *)
    let (champ, champ_net) =
      List.fold_left
        (fun (bc, bn) (c, n) ->
          if c.score < bc.score then (c, n) else (bc, bn))
        first rest
    in
    let margin =
      List.fold_left
        (fun m (c, _) ->
          if c.c_strategy = champ.c_strategy then m
          else min m (c.score -. champ.score))
        infinity verified
    in
    {
      circuit = name;
      champion = champ.c_strategy;
      champion_net = champ_net;
      champion_score = champ.score;
      source_score;
      margin = (if margin = infinity then 0.0 else margin);
      candidates = List.map fst field;
      sat =
        (match !sess with
        | Some s -> Cec.session_stats s
        | None -> Solver.empty_stats);
    }

(* FSM encoding tournaments *)

type fsm_candidate = {
  encoding : string;
  bits : int;
  capacitance : float;
  fsm_literals : int;
  verified : bool;
  error : string option;
}

type fsm_promotion = {
  fsm : string;
  fsm_champion : string;
  champion_synth : Fsm_synth.t;
  champion_capacitance : float;
  fsm_margin : float;
  encodings : fsm_candidate list;
}

let default_encodings stg =
  let num_states = Stg.num_states stg in
  let dist = Markov.uniform_inputs stg in
  [
    ("binary", Encode.binary ~num_states);
    ("gray", Encode.gray ~num_states);
    ("one-hot", Encode.one_hot ~num_states);
    ("low-power", Encode.low_power stg dist);
  ]

let run_fsm ?encodings ?input_bit_probs ?(verify_cycles = 256) stg =
  let roster =
    match encodings with Some e -> e | None -> default_encodings stg
  in
  let probs =
    match input_bit_probs with
    | Some p -> p
    | None -> Array.make (Stg.num_inputs stg) 0.5
  in
  let field =
    List.map
      (fun (ename, enc) ->
        match
          let synth = Fsm_synth.synthesize stg enc in
          let est =
            Seq_estimate.steady_state synth.Fsm_synth.circuit
              ~input_bit_probs:probs
          in
          let ok =
            Fsm_synth.verify synth stg ~rng:(Lowpower.Rng.create 0x5EED)
              ~cycles:verify_cycles
          in
          ( { encoding = ename; bits = enc.Encode.bits;
              capacitance = est.Seq_estimate.switched_capacitance;
              fsm_literals = Fsm_synth.literal_count synth; verified = ok;
              error = None },
            Some synth )
        with
        | c -> c
        | exception e ->
          ( { encoding = ename; bits = 0; capacitance = infinity;
              fsm_literals = 0; verified = false;
              error = Some (Printexc.to_string e) },
            None ))
      roster
  in
  let verified =
    List.filter_map
      (fun (c, s) ->
        match (c.verified, s) with true, Some s -> Some (c, s) | _ -> None)
      field
  in
  match verified with
  | [] -> invalid_arg "Tournament.run_fsm: every encoding failed"
  | first :: rest ->
    let (champ, champ_synth) =
      List.fold_left
        (fun (bc, bs) (c, s) ->
          if c.capacitance < bc.capacitance then (c, s) else (bc, bs))
        first rest
    in
    let margin =
      List.fold_left
        (fun m (c, _) ->
          if c.encoding = champ.encoding then m
          else min m (c.capacitance -. champ.capacitance))
        infinity verified
    in
    {
      fsm = Stg.name stg;
      fsm_champion = champ.encoding;
      champion_synth = champ_synth;
      champion_capacitance = champ.capacitance;
      fsm_margin = (if margin = infinity then 0.0 else margin);
      encodings = List.map fst field;
    }
