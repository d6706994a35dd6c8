(* Reference checks that avoid the provers under test: no Cec, no BDDs, no
   Memo.  Networks are compared by plain evaluation over every input
   vector, datapaths by word-level execution on fresh samples, FSMs by the
   scalar co-simulation path under a seed the encoding race never used.
   Every check returns [true] when the result is correct. *)

let max_exhaustive_inputs = 12

let input_names net = List.map (Network.name net) (Network.inputs net)

let sorted_outputs net v = List.sort compare (Network.eval_outputs net v)

let all_vectors n f =
  if n > max_exhaustive_inputs then
    invalid_arg (Printf.sprintf "Refcheck: %d inputs exceed exhaustive limit" n);
  let v = Array.make n false in
  for code = 0 to (1 lsl n) - 1 do
    for i = 0 to n - 1 do
      v.(i) <- code land (1 lsl i) <> 0
    done;
    f v
  done

(* Reorder a vector over [a]'s inputs into [b]'s declaration order, matching
   inputs by name, so networks that declare inputs differently still
   compare; [None] when the input names differ. *)
let reorder a b =
  let na = input_names a and nb = input_names b in
  if List.sort compare na <> List.sort compare nb then None
  else
    let pos = List.mapi (fun i name -> (name, i)) na in
    let perm = Array.of_list (List.map (fun name -> List.assoc name pos) nb) in
    Some (fun v -> Array.map (fun i -> v.(i)) perm)

(* [a] and [b] compute the same outputs on all 2^n input vectors. *)
let same_function a b =
  match reorder a b with
  | None -> false
  | Some to_b ->
    let ok = ref true in
    all_vectors (List.length (Network.inputs a)) (fun v ->
        if !ok && sorted_outputs a v <> sorted_outputs b (to_b v) then
          ok := false);
    !ok

(* A counterexample over [a]'s inputs really separates the networks. *)
let distinguishes a b v =
  match reorder a b with
  | None -> false
  | Some to_b -> sorted_outputs a v <> sorted_outputs b (to_b v)

(* Exact per-output probability of 1 by weighted enumeration of every input
   vector; [probs] must agree to within rounding. *)
let output_probabilities_match net ~input_probs probs =
  let acc = Hashtbl.create 16 in
  all_vectors (List.length (Network.inputs net)) (fun v ->
      let w = ref 1.0 in
      Array.iteri
        (fun i b ->
          w := !w *. if b then input_probs.(i) else 1. -. input_probs.(i))
        v;
      List.iter
        (fun (name, b) ->
          let p = Option.value ~default:0.0 (Hashtbl.find_opt acc name) in
          Hashtbl.replace acc name (if b then p +. !w else p))
        (Network.eval_outputs net v));
  Array.length probs = Hashtbl.length acc
  && Array.for_all
       (fun (name, p) ->
         match Hashtbl.find_opt acc name with
         | Some q -> Float.abs (p -. q) <= 1e-9
         | None -> false)
       probs

let fsm_champion_holds (p : Tournament.fsm_promotion) stg ~seed =
  Float.is_finite p.Tournament.champion_capacitance
  && Fsm_synth.verify ~packed:false p.Tournament.champion_synth stg
       ~rng:(Lowpower.Rng.create seed) ~cycles:2048

let same_datapath a b ~seed ~samples =
  List.for_all
    (fun s ->
      List.sort compare (Dfg.eval a s) = List.sort compare (Dfg.eval b s))
    (Gen_dfg.random_samples (Lowpower.Rng.create seed) a ~n:samples ())
