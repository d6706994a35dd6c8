(* The repository benchmark: three workloads over the verified optimization
   service.  An untraced run (--trace 0) reports the end-to-end metrics; a
   traced run (--trace 1) times calls into each layer's public functions
   and reports the per-layer metrics.  README.md beside this file says why
   each workload was chosen and which layer metric should move which
   end-to-end metric.

   Usage: perfbench --workload NAME --seed N --seconds S --trace 0|1
   The last line of standard output is one JSON object:
   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}. *)

let now = Unix.gettimeofday

let cpu_now () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let geomean = function
  | [] -> 1.0
  | xs ->
    exp (List.fold_left (fun s x -> s +. log x) 0.0 xs
         /. float_of_int (List.length xs))

let ratio a b = if b = 0.0 then 0.0 else a /. b
let mb_of_words w = float_of_int (w * (Sys.word_size / 8)) /. 1e6
let sum = List.fold_left ( +. ) 0.0

(* Positions where two digest lists disagree (a length change counts every
   missing or extra line). *)
let mismatches a b =
  let rec go acc = function
    | x :: xs, y :: ys -> go (if x = y then acc else acc + 1) (xs, ys)
    | rest, [] | [], rest -> acc + List.length rest
  in
  go 0 (a, b)

(* ---- Workload interface ---- *)

(* One pass over a workload's operations.  Only the call that produces the
   pass is timed; everything below is evaluated afterwards. *)
type pass = {
  digests : unit -> string list;
      (** one stable line per operation: outputs plus every counter that
          must repeat exactly *)
  ratios : unit -> float list;  (** quality ratios, lower is better *)
  reference : unit -> int;  (** operations failing the reference check *)
}

type workload = {
  ops : int;  (** operations per pass *)
  run_pass : unit -> pass;
  traced : metrics:(string, float) Hashtbl.t -> int;
      (** one traced pass filling per-layer metrics; returns the number of
          operations failing its determinism and roster checks *)
}

(* ---- Per-layer metric names ---- *)

let batch_kinds =
  [ "estimate"; "tournament"; "tournament_traced"; "verify"; "map"; "fsm" ]

(* The program's own roster with its trace-only entrant, read from the
   library so a roster change shows up as new or missing metric names. *)
let roster_names () =
  let net = (Circuits.ripple_adder 1).Circuits.net in
  let trace = Stimulus.counter ~width:(List.length (Network.inputs net)) ~length:4 in
  List.map (fun s -> s.Tournament.s_name)
    (Tournament.default_strategies ~trace net)

let per_layer_units () =
  let roster = roster_names () in
  List.concat
    [
      List.map (fun s -> ("tournament." ^ s ^ "_s", "s")) roster;
      [ ("tournament.score_verify_s", "s"); ("tournament.mult4_s", "s");
        ("tournament.mult5_s", "s"); ("tournament.mult6_s", "s") ];
      List.map (fun s -> ("tournament.wins." ^ s, "count")) roster;
      [ ("tournament.refuted", "count"); ("tournament.failed", "count") ];
      List.concat_map
        (fun k ->
          [ ("batch." ^ k ^ "_ms.p50", "ms"); ("batch." ^ k ^ "_ms.tail", "ms");
            ("batch." ^ k ^ "_share", "ratio"); ("batch." ^ k ^ ".samples", "count") ])
        batch_kinds;
      [ ("pool.steals", "count"); ("pool.stolen_jobs", "count");
        ("pool.imbalance", "ratio");
        ("memo.hits", "count"); ("memo.misses", "count");
        ("memo.hit_ratio", "ratio"); ("memo.evictions", "count");
        ("memo.duplicate_misses", "count");
        ("sat.conflicts", "count"); ("sat.decisions", "count");
        ("sat.propagations", "count"); ("sat.learned_clauses", "count");
        ("sat.restarts", "count"); ("sat.conflicts_delta", "count");
        ("rewrite.rules_s", "s"); ("rewrite.other_s", "s");
        ("rewrite.candidates", "count"); ("rewrite.proofs", "count");
        ("rewrite.refuted", "count"); ("rewrite.undecided", "count");
        ("rewrite.proof_yield", "ratio");
        ("gc.minor_words", "words"); ("gc.promoted_words", "words");
        ("gc.minor_collections", "count"); ("gc.major_collections", "count");
        ("gc.top_heap_mb", "MB");
        ("trace.coverage", "ratio"); ("trace.overhead_s", "s") ];
    ]

let set metrics name v = Hashtbl.replace metrics name v

let add metrics name v =
  set metrics name
    (v +. Option.value ~default:0.0 (Hashtbl.find_opt metrics name))

let set_sat metrics (s : Solver.stats) =
  set metrics "sat.conflicts" (float_of_int s.Solver.conflicts);
  set metrics "sat.decisions" (float_of_int s.Solver.decisions);
  set metrics "sat.propagations" (float_of_int s.Solver.propagations);
  set metrics "sat.learned_clauses" (float_of_int s.Solver.learned_clauses);
  set metrics "sat.restarts" (float_of_int s.Solver.restarts)

let set_memo metrics (m : Memo.stats) =
  set metrics "memo.hits" (float_of_int m.Memo.hits);
  set metrics "memo.misses" (float_of_int m.Memo.misses);
  set metrics "memo.evictions" (float_of_int m.Memo.evictions);
  set metrics "memo.hit_ratio"
    (ratio (float_of_int m.Memo.hits) (float_of_int (m.Memo.hits + m.Memo.misses)))

(* GC work done by [f], as deltas of the process counters. *)
let with_gc metrics f =
  let g0 = Gc.quick_stat () in
  let r = f () in
  let g1 = Gc.quick_stat () in
  set metrics "gc.minor_words" (g1.Gc.minor_words -. g0.Gc.minor_words);
  set metrics "gc.promoted_words" (g1.Gc.promoted_words -. g0.Gc.promoted_words);
  set metrics "gc.minor_collections"
    (float_of_int (g1.Gc.minor_collections - g0.Gc.minor_collections));
  set metrics "gc.major_collections"
    (float_of_int (g1.Gc.major_collections - g0.Gc.major_collections));
  r

(* ---- Tournament tracing ---- *)

let names roster = List.map (fun s -> s.Tournament.s_name) roster

(* The program's default roster for [net], each transform timed into
   [tournament.<strategy>_s].  The guard refuses a wrapped list that
   differs in names or order from the library's own roster. *)
let timed_roster metrics ?memo ?trace net =
  let roster = Tournament.default_strategies ?memo ?trace net in
  let wrapped =
    List.map
      (fun s ->
        let transform n =
          let t0 = now () in
          Fun.protect
            ~finally:(fun () ->
              add metrics ("tournament." ^ s.Tournament.s_name ^ "_s") (now () -. t0))
            (fun () -> s.Tournament.transform n)
        in
        { s with Tournament.transform })
      roster
  in
  if names wrapped <> names (Tournament.default_strategies ?trace net) then
    failwith "traced roster differs from Tournament.default_strategies";
  wrapped

let count_promotion metrics (p : Tournament.promotion) =
  add metrics ("tournament.wins." ^ p.Tournament.champion) 1.0;
  List.iter
    (fun c ->
      match c.Tournament.c_verdict with
      | Tournament.Verified -> ()
      | Tournament.Refuted _ -> add metrics "tournament.refuted" 1.0
      | Tournament.Failed _ -> add metrics "tournament.failed" 1.0)
    p.Tournament.candidates

let strategy_seconds metrics =
  sum
    (List.map
       (fun s -> Option.value ~default:0.0
                   (Hashtbl.find_opt metrics ("tournament." ^ s ^ "_s")))
       (roster_names ()))

let sat_line (s : Solver.stats) =
  Printf.sprintf "sat conflicts=%d decisions=%d propagations=%d learned=%d restarts=%d"
    s.Solver.conflicts s.Solver.decisions s.Solver.propagations
    s.Solver.learned_clauses s.Solver.restarts

(* ---- batch_mixed ---- *)

(* Closed batch: all jobs submitted at once.  500 jobs keep one pass near
   4 s on two domains, so a run holds several passes, and average out most
   of the seed-to-seed difference in job sizes. *)
let batch_jobs = 500

let kind_of = function
  | Batch.Estimate _ -> "estimate"
  | Batch.Synthesize { trace = None; _ } -> "tournament"
  | Batch.Synthesize { trace = Some _; _ } -> "tournament_traced"
  | Batch.Verify _ -> "verify"
  | Batch.Map _ -> "map"
  | Batch.Encode_fsm _ -> "fsm"

let batch_digests (r : Batch.report) =
  Array.to_list (Array.map (fun (_, o) -> Batch.summarize o) r.Batch.results)

let batch_ratio = function
  | Batch.Promoted p ->
    Some (ratio p.Tournament.champion_score p.Tournament.source_score)
  | Batch.Encoded p ->
    List.find_map
      (fun c ->
        if c.Tournament.encoding = "binary" && Float.is_finite c.Tournament.capacitance
        then Some (ratio p.Tournament.champion_capacitance c.Tournament.capacitance)
        else None)
      p.Tournament.encodings
  | _ -> None

let batch_reference ~seed job outcome =
  match (job, outcome) with
  | Batch.Estimate { net; input_probs; _ }, Batch.Estimated { probs; _ } ->
    Refcheck.output_probabilities_match net ~input_probs probs
  | Batch.Synthesize { net; _ }, Batch.Promoted p ->
    Refcheck.same_function net p.Tournament.champion_net
  | Batch.Verify { left; right; _ }, Batch.Checked Cec.Equivalent ->
    Refcheck.same_function left right
  | Batch.Verify { left; right; _ }, Batch.Checked (Cec.Counterexample v) ->
    Refcheck.distinguishes left right v
  | Batch.Map _, Batch.Mapped { area; delay; cells } ->
    cells > 0 && area > 0.0 && Float.is_finite delay
  | Batch.Encode_fsm { stg; _ }, Batch.Encoded p ->
    Refcheck.fsm_champion_holds p stg ~seed
  | _ -> false

(* The highest percentile with at least ten samples beyond it; with fewer
   than 21 samples no such percentile clears the median, so the tail is
   the median. *)
let p50_and_tail xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then (0.0, 0.0)
  else (median xs, if n >= 21 then a.(n - 11) else median xs)

let batch_mixed seed =
  let jobs = Batch.mixed_workload ~seed ~n:batch_jobs () in
  let run_pass () =
    let r = Batch.run ~domains:2 ~memo:(Memo.create ()) jobs in
    {
      digests = (fun () -> batch_digests r);
      ratios =
        (fun () ->
          List.filter_map (fun (_, o) -> batch_ratio o) (Array.to_list r.Batch.results));
      reference =
        (fun () ->
          let failed = ref 0 in
          Array.iteri
            (fun i job ->
              (* FSM co-simulation seed: never the race's own 0x5EED. *)
              let seed = 0x10000 + (seed * 4099) + i in
              if not (batch_reference ~seed job (snd r.Batch.results.(i))) then
                incr failed)
            jobs;
          !failed);
    }
  in
  let traced ~metrics =
    (* Two domains: pool balance, shared-cache traffic, GC under contention. *)
    let r2 =
      with_gc metrics (fun () -> Batch.run ~domains:2 ~memo:(Memo.create ()) jobs)
    in
    let p = r2.Batch.pool in
    set metrics "pool.steals" (float_of_int p.Pool.steals);
    set metrics "pool.stolen_jobs" (float_of_int p.Pool.stolen_jobs);
    let executed = Array.to_list (Array.map float_of_int p.Pool.executed) in
    set metrics "pool.imbalance"
      (ratio (List.fold_left max 0.0 executed)
         (sum executed /. float_of_int (List.length executed)));
    set_memo metrics r2.Batch.memo;
    (* Untraced serial pass: the base of the tracing overhead. *)
    let t0 = now () in
    ignore (Batch.run ~domains:1 ~memo:(Memo.create ()) jobs);
    let serial_wall = now () -. t0 in
    (* Serial replay: each job alone, one shared cache, one span per job. *)
    let memo = Memo.create () in
    let t0 = now () in
    let replay =
      Array.map
        (fun job ->
          let ts = now () in
          let r = Batch.run ~domains:1 ~memo [| job |] in
          (now () -. ts, r))
        jobs
    in
    let replay_wall = now () -. t0 in
    let spans = Array.to_list (Array.map fst replay) in
    set metrics "trace.coverage" (ratio (sum spans) replay_wall);
    set metrics "trace.overhead_s" (replay_wall -. serial_wall);
    let serial = Array.to_list (Array.map snd replay) in
    let serial_sat =
      List.fold_left (fun acc r -> Solver.sum_stats acc r.Batch.sat) Solver.empty_stats serial
    in
    set_sat metrics serial_sat;
    set metrics "sat.conflicts_delta"
      (float_of_int (r2.Batch.sat.Solver.conflicts - serial_sat.Solver.conflicts));
    set metrics "memo.duplicate_misses"
      (float_of_int (r2.Batch.memo.Memo.misses - (Memo.stats memo).Memo.misses));
    let total = sum spans in
    List.iter
      (fun k ->
        let ms =
          List.concat
            (List.mapi
               (fun i (t, _) -> if kind_of jobs.(i) = k then [ t *. 1e3 ] else [])
               (Array.to_list replay))
        in
        let p50, tail = p50_and_tail ms in
        set metrics ("batch." ^ k ^ "_ms.p50") p50;
        set metrics ("batch." ^ k ^ "_ms.tail") tail;
        set metrics ("batch." ^ k ^ "_share") (ratio (sum ms /. 1e3) total);
        set metrics ("batch." ^ k ^ ".samples") (float_of_int (List.length ms)))
      batch_kinds;
    (* Tournaments again with the roster's transforms timed; results must
       match the replay's, or the timed roster is not the program's. *)
    let memo = Memo.create () in
    let bad = ref 0 and races = ref 0.0 in
    Array.iteri
      (fun i job ->
        match (job, snd replay.(i)) with
        | Batch.Synthesize { label; net; trace }, r ->
          let strategies = timed_roster metrics ~memo ?trace net in
          let ts = now () in
          let p = Tournament.run ~name:label ~strategies ?trace ~memo net in
          races := !races +. (now () -. ts);
          count_promotion metrics p;
          if Batch.summarize (Batch.Promoted p) <> List.hd (batch_digests r) then
            incr bad
        | _ -> ())
      jobs;
    set metrics "tournament.score_verify_s" (!races -. strategy_seconds metrics);
    !bad
    + mismatches (batch_digests r2) (List.concat_map batch_digests serial)
  in
  { ops = Array.length jobs; run_pass; traced }

(* ---- tournament_mult ---- *)

let mult_widths = [ 4; 5; 6 ]
let mult_trace_length = 256

let promotion_digest (p : Tournament.promotion) =
  Printf.sprintf "%s champion=%s score=%h source=%h hash=%x %s" p.Tournament.circuit
    p.Tournament.champion p.Tournament.champion_score p.Tournament.source_score
    (Network.structural_hash p.Tournament.champion_net)
    (sat_line p.Tournament.sat)

let memo_line (m : Memo.stats) =
  Printf.sprintf "memo hits=%d misses=%d evictions=%d" m.Memo.hits m.Memo.misses
    m.Memo.evictions

let tournament_mult seed =
  let rng = Lowpower.Rng.create seed in
  let inputs =
    List.map
      (fun w ->
        let net = (Circuits.array_multiplier w).Circuits.net in
        let trace =
          Traces.correlated_walk (Lowpower.Rng.split rng) ~bits:(2 * w)
            ~n:mult_trace_length ()
        in
        (w, net, trace))
      mult_widths
  in
  let race ?strategies memo (w, net, trace) =
    Tournament.run ~name:(Printf.sprintf "mult%d" w) ?strategies ~trace ~memo net
  in
  let run_pass () =
    let memo = Memo.create () in
    let ps = List.map (race memo) inputs in
    {
      digests =
        (fun () -> List.map promotion_digest ps @ [ memo_line (Memo.stats memo) ]);
      ratios =
        (fun () ->
          List.map
            (fun p -> ratio p.Tournament.champion_score p.Tournament.source_score)
            ps);
      reference =
        (fun () ->
          List.length
            (List.filter
               (fun ((_, net, _), p) ->
                 not (Refcheck.same_function net p.Tournament.champion_net))
               (List.combine inputs ps)));
    }
  in
  let traced ~metrics =
    let t0 = now () in
    let untraced = run_pass () in
    let untraced_wall = now () -. t0 in
    let memo = Memo.create () in
    let rosters =
      List.map (fun (_, net, trace) -> timed_roster metrics ~memo ~trace net) inputs
    in
    let t0 = now () in
    let ps =
      with_gc metrics (fun () ->
          List.map2
            (fun ((w, _, _) as input) strategies ->
              let ts = now () in
              let p = race ~strategies memo input in
              set metrics (Printf.sprintf "tournament.mult%d_s" w) (now () -. ts);
              p)
            inputs rosters)
    in
    let wall = now () -. t0 in
    let spans =
      sum
        (List.map
           (fun (w, _, _) -> Hashtbl.find metrics (Printf.sprintf "tournament.mult%d_s" w))
           inputs)
    in
    List.iter (count_promotion metrics) ps;
    set metrics "tournament.score_verify_s" (spans -. strategy_seconds metrics);
    set_sat metrics
      (List.fold_left (fun acc p -> Solver.sum_stats acc p.Tournament.sat)
         Solver.empty_stats ps);
    set_memo metrics (Memo.stats memo);
    set metrics "trace.coverage" (ratio spans wall);
    set metrics "trace.overhead_s" (wall -. untraced_wall);
    mismatches (untraced.digests ())
      (List.map promotion_digest ps @ [ memo_line (Memo.stats memo) ])
  in
  { ops = List.length inputs; run_pass; traced }

(* ---- rewrite_fir ---- *)

let fir_coeffs = [ 127; 63; 119; 123; 125; 111; 95; 87 ]

let search_digest (r : Search.result) =
  Printf.sprintf
    "rewrite initial=%h final=%h hash=%x steps=%d candidates=%d proofs=%d \
     refuted=%d undecided=%d %s"
    r.Search.initial_cost r.Search.final_cost
    (Dfg.structural_hash r.Search.final)
    (List.length r.Search.steps) r.Search.candidates r.Search.proofs
    (List.length r.Search.refuted) r.Search.undecided (sat_line r.Search.sat)

let rewrite_fir seed =
  let dfg = Gen_dfg.fir ~taps:8 ~coeffs:fir_coeffs ~width:8 () in
  let trace =
    Gen_dfg.random_samples (Lowpower.Rng.create 42) dfg ~n:64 ~correlated:true ()
  in
  let search ?rules memo =
    Search.run ?rules ~beam:1 ~memo ~rng:(Lowpower.Rng.create seed) dfg ~trace
  in
  let run_pass () =
    let r = search (Memo.create ()) in
    {
      digests = (fun () -> [ search_digest r ]);
      ratios = (fun () -> [ ratio r.Search.final_cost r.Search.initial_cost ]);
      reference =
        (fun () ->
          if Refcheck.same_datapath dfg r.Search.final ~seed:(seed + 1) ~samples:512
          then 0
          else 1);
    }
  in
  let traced ~metrics =
    let t0 = now () in
    let untraced = run_pass () in
    let untraced_wall = now () -. t0 in
    let t0 = now () in
    let rule_s = ref 0.0 in
    let timed f =
      let ts = now () in
      Fun.protect ~finally:(fun () -> rule_s := !rule_s +. (now () -. ts)) f
    in
    let rules =
      List.map
        (fun (r : Rules.rule) ->
          {
            r with
            Rules.sites = (fun g -> timed (fun () -> r.Rules.sites g));
            apply_at = (fun g i -> timed (fun () -> r.Rules.apply_at g i));
          })
        Rules.all
    in
    let memo = Memo.create () in
    let ts = now () in
    let r = with_gc metrics (fun () -> search ~rules memo) in
    let span = now () -. ts in
    let wall = now () -. t0 in
    set metrics "rewrite.rules_s" !rule_s;
    set metrics "rewrite.other_s" (span -. !rule_s);
    set metrics "rewrite.candidates" (float_of_int r.Search.candidates);
    set metrics "rewrite.proofs" (float_of_int r.Search.proofs);
    set metrics "rewrite.refuted" (float_of_int (List.length r.Search.refuted));
    set metrics "rewrite.undecided" (float_of_int r.Search.undecided);
    set metrics "rewrite.proof_yield"
      (ratio (float_of_int r.Search.proofs) (float_of_int r.Search.candidates));
    set_sat metrics r.Search.sat;
    set_memo metrics (Memo.stats memo);
    set metrics "trace.coverage" (ratio span wall);
    set metrics "trace.overhead_s" (wall -. untraced_wall);
    mismatches (untraced.digests ()) [ search_digest r ]
  in
  { ops = 1; run_pass; traced }

let workloads =
  [ ("batch_mixed", batch_mixed); ("tournament_mult", tournament_mult);
    ("rewrite_fir", rewrite_fir) ]

(* ---- Runs ---- *)

(* One set-up sample: set-up takes milliseconds or less, so it is timed in
   a batch of at least 20 ms and reported per build. *)
let setup_sample setup seed =
  let t0 = now () in
  let k = ref 0 in
  while now () -. t0 < 0.02 do
    ignore (Sys.opaque_identity (setup seed));
    incr k
  done;
  (now () -. t0) /. float_of_int !k

type result = {
  attempted : int;
  failed : int;
  metrics : (string * float * string) list;
}

(* Untraced: timed passes until [seconds] have elapsed (at least three).
   The first pass's results are checked against the references and every
   later pass must reproduce its digests.  Times are those of the fastest
   pass: the host is shared, and its slow phases last 5-15 s and slow every
   pass inside them by up to half (README.md), so the median of a run's
   passes moves with the neighbours' load while the fastest pass does not.
   Set-up is sampled before every pass, so its median spans the same
   phases. *)
let end_to_end setup ~seed ~seconds =
  let w = setup seed in
  let passes = ref [] and setups = ref [] and first = ref None and drift = ref 0 in
  let start = now () in
  while List.length !passes < 3 || now () -. start < seconds do
    setups := setup_sample setup seed :: !setups;
    let c0 = cpu_now () and t0 = now () in
    let p = w.run_pass () in
    let t1 = now () and c1 = cpu_now () in
    passes := (t1 -. t0, c1 -. c0) :: !passes;
    match !first with
    | None -> first := Some (p, p.digests ())
    | Some (_, expected) -> drift := !drift + mismatches expected (p.digests ())
  done;
  let first, expected = Option.get !first in
  let peak_heap_mb = mb_of_words (Gc.quick_stat ()).Gc.top_heap_words in
  let wall_s, cpu_s = List.fold_left min (List.hd !passes) !passes in
  Printf.printf "passes: %s\n"
    (String.concat " "
       (List.rev_map (fun (wall, _) -> Printf.sprintf "%.3fs" wall) !passes));
  (* Equal digests across runs of one seed show that results and serial
     counters repeat from process to process, not only from pass to pass. *)
  Printf.printf "digest: %s\n"
    (Digest.to_hex (Digest.string (String.concat "\n" expected)));
  let failed = first.reference () + !drift in
  {
    attempted = w.ops * List.length !passes;
    failed;
    metrics =
      [ ("setup_s", median !setups, "s"); ("wall_s", wall_s, "s");
        ("cpu_s", cpu_s, "s");
        ("jobs_per_s", float_of_int w.ops /. wall_s, "1/s");
        ("peak_heap_mb", peak_heap_mb, "MB");
        ("power_ratio", geomean (first.ratios ()), "ratio") ];
  }

let traced setup ~seed =
  let w = setup seed in
  let metrics = Hashtbl.create 128 in
  let failed = w.traced ~metrics in
  set metrics "gc.top_heap_mb" (mb_of_words (Gc.quick_stat ()).Gc.top_heap_words);
  {
    attempted = 2 * w.ops;
    failed;
    metrics =
      List.map
        (fun (name, unit) ->
          (name, Option.value ~default:0.0 (Hashtbl.find_opt metrics name), unit))
        (per_layer_units ());
  }

let print_json r =
  let metric (name, v, unit) =
    let v = if Float.is_finite v then v else 0.0 in
    Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name v unit
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (r.failed = 0) r.attempted r.failed
    (String.concat ", " (List.map metric r.metrics))

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  Arg.parse
    [ ("--workload", Arg.Set_string workload,
       " " ^ String.concat "|" (List.map fst workloads));
      ("--seed", Arg.Set_int seed, " input seed (default 1)");
      ("--seconds", Arg.Set_int seconds, " measured time per run (default 10)");
      ("--trace", Arg.Set_int trace, " 0: end-to-end metrics, 1: per-layer metrics") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload NAME --seed N --seconds S --trace 0|1";
  match List.assoc_opt !workload workloads with
  | None ->
    prerr_endline ("perfbench: unknown workload " ^ !workload);
    exit 2
  | Some setup ->
    let r =
      try
        if !trace = 0 then
          end_to_end setup ~seed:!seed ~seconds:(float_of_int !seconds)
        else traced setup ~seed:!seed
      with e ->
        (* An operation that raises aborts its whole pass. *)
        prerr_endline ("perfbench: " ^ Printexc.to_string e);
        { attempted = 1; failed = 1; metrics = [] }
    in
    List.iter (fun (n, v, u) -> Printf.printf "%-36s %16.6f %s\n" n v u) r.metrics;
    print_json r;
    if r.failed > 0 then exit 1
