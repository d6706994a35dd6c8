type op =
  | Input of string
  | Const of int
  | Add
  | Sub
  | Mul
  | Shift_left of int
  | Output of string

type id = int

type node = { nop : op; nargs : id list }

type t = {
  word_width : int;
  mutable node_tbl : node array;
  mutable count : int;
}

let create ?(width = 16) () =
  if width < 1 || width > 30 then invalid_arg "Dfg.create: width in [1, 30]";
  { word_width = width; node_tbl = Array.make 16 { nop = Const 0; nargs = [] }; count = 0 }

let width t = t.word_width

let arity = function
  | Input _ | Const _ -> 0
  | Shift_left _ | Output _ -> 1
  | Add | Sub | Mul -> 2

let add t op args =
  if List.length args <> arity op then invalid_arg "Dfg.add: arity mismatch";
  List.iter
    (fun a -> if a < 0 || a >= t.count then invalid_arg "Dfg.add: unknown arg")
    args;
  if t.count = Array.length t.node_tbl then begin
    let bigger = Array.make (2 * t.count) { nop = Const 0; nargs = [] } in
    Array.blit t.node_tbl 0 bigger 0 t.count;
    t.node_tbl <- bigger
  end;
  t.node_tbl.(t.count) <- { nop = op; nargs = args };
  t.count <- t.count + 1;
  t.count - 1

let get t i =
  if i < 0 || i >= t.count then invalid_arg "Dfg: unknown node";
  t.node_tbl.(i)

let op t i = (get t i).nop
let args t i = (get t i).nargs

let nodes t = List.init t.count (fun i -> i)

let succs t i =
  ignore (get t i);
  List.filter (fun j -> List.mem i (args t j)) (nodes t)

let inputs t =
  List.filter_map
    (fun i -> match op t i with Input nm -> Some (nm, i) | _ -> None)
    (nodes t)

let outputs t =
  List.filter_map
    (fun i -> match op t i with Output nm -> Some (nm, i) | _ -> None)
    (nodes t)

let operation_nodes t =
  List.filter
    (fun i ->
      match op t i with
      | Add | Sub | Mul | Shift_left _ -> true
      | Input _ | Const _ | Output _ -> false)
    (nodes t)

let num_ops t = List.length (operation_nodes t)

let mask t = (1 lsl t.word_width) - 1

let eval_values t env =
  let values = Array.make t.count 0 in
  let m = mask t in
  for i = 0 to t.count - 1 do
    let n = t.node_tbl.(i) in
    let v =
      match n.nop, n.nargs with
      | Input nm, [] ->
        (match List.assoc_opt nm env with
        | Some v -> v land m
        | None -> invalid_arg ("Dfg.eval: missing input " ^ nm))
      | Const c, [] -> c land m
      | Add, [ a; b ] -> (values.(a) + values.(b)) land m
      | Sub, [ a; b ] -> (values.(a) - values.(b)) land m
      | Mul, [ a; b ] -> values.(a) * values.(b) land m
      | Shift_left k, [ a ] -> (values.(a) lsl k) land m
      | Output _, [ a ] -> values.(a)
      | (Input _ | Const _ | Add | Sub | Mul | Shift_left _ | Output _), _ ->
        invalid_arg "Dfg.eval: corrupt arity"
    in
    values.(i) <- v
  done;
  values

let eval t env =
  let values = eval_values t env in
  List.map (fun (nm, i) -> (nm, values.(i))) (outputs t)

let operand_trace t samples =
  let traces = Hashtbl.create 16 in
  List.iter (fun i -> Hashtbl.replace traces i []) (operation_nodes t);
  List.iter
    (fun env ->
      let values = eval_values t env in
      List.iter
        (fun i ->
          let operands =
            match args t i with
            | [ a; b ] -> (values.(a), values.(b))
            | [ a ] -> (values.(a), 0)
            | _ -> (0, 0)
          in
          Hashtbl.replace traces i (operands :: Hashtbl.find traces i))
        (operation_nodes t))
    samples;
  Hashtbl.iter (fun i tr -> Hashtbl.replace traces i (List.rev tr)) traces;
  traces

let value_trace t samples =
  let traces = Hashtbl.create 16 in
  List.iter (fun i -> Hashtbl.replace traces i []) (nodes t);
  List.iter
    (fun env ->
      let values = eval_values t env in
      List.iter
        (fun i -> Hashtbl.replace traces i (values.(i) :: Hashtbl.find traces i))
        (nodes t))
    samples;
  Hashtbl.iter (fun i tr -> Hashtbl.replace traces i (List.rev tr)) traces;
  traces

(* --- Canonical structural identity ----------------------------------- *)

(* Identity must depend only on structure reachable from the outputs —
   operators, wiring, input/output names, word width — never on node ids
   or on the order commutative operands were listed in. *)
module H = Lowpower.Hash

let node_hashes t =
  let hs = Array.make (max t.count 1) 0 in
  for i = 0 to t.count - 1 do
    let n = t.node_tbl.(i) in
    let ah = List.map (fun a -> hs.(a)) n.nargs in
    hs.(i) <-
      (match n.nop, ah with
      | Input nm, [] -> H.combine 3 (H.string nm)
      | Const c, [] -> H.combine 5 (H.mix c)
      (* Add and Mul fold operand hashes commutatively (sum mod 2^62), so
         swapping their operands leaves every downstream hash unchanged. *)
      | Add, [ x; y ] -> H.combine 7 ((x + y) land max_int)
      | Mul, [ x; y ] -> H.combine 11 ((x + y) land max_int)
      | Sub, [ x; y ] -> H.combine (H.combine 13 x) y
      | Shift_left k, [ x ] -> H.combine (H.combine 17 (H.mix k)) x
      | Output nm, [ x ] -> H.combine (H.combine 19 (H.string nm)) x
      | (Input _ | Const _ | Add | Sub | Mul | Shift_left _ | Output _), _ ->
        invalid_arg "Dfg.node_hashes: corrupt arity")
  done;
  hs

let node_hash t i =
  ignore (get t i);
  (node_hashes t).(i)

let reachable t =
  let live = Array.make (max t.count 1) false in
  let rec mark i =
    if not live.(i) then begin
      live.(i) <- true;
      List.iter mark t.node_tbl.(i).nargs
    end
  in
  List.iter (fun (_, i) -> mark i) (outputs t);
  live

let structural_hash t =
  let hs = node_hashes t in
  let live = reachable t in
  (* Reachable nodes fold in commutatively (sum mod 2^62): insensitive to
     id numbering, but a shared subexpression and a duplicated one still
     hash apart (multiplicity counts, as in [Network.structural_hash]).
     Dead nodes are ignored — they have no effect on semantics, cost or
     elaboration. *)
  let all =
    List.fold_left
      (fun acc i -> if live.(i) then (acc + hs.(i)) land max_int else acc)
      0 (nodes t)
  in
  let outs =
    List.fold_left
      (fun acc (nm, i) -> (acc + H.combine (H.string nm) hs.(i)) land max_int)
      0 (outputs t)
  in
  H.combine (H.combine (H.mix t.word_width) all) outs

let equal a b =
  (* Tree-unfolded comparison modulo commutative operand order, memoized on
     node pairs; the [structural_hash] guard additionally separates graphs
     that differ only in sharing multiplicity (the unfolding cannot). *)
  width a = width b
  && List.sort compare (List.map fst (outputs a))
     = List.sort compare (List.map fst (outputs b))
  && structural_hash a = structural_hash b
  &&
  let memo = Hashtbl.create 64 in
  let rec teq i j =
    match Hashtbl.find_opt memo (i, j) with
    | Some r -> r
    | None ->
      let r =
        match (op a i, args a i, op b j, args b j) with
        | Input n1, [], Input n2, [] -> n1 = n2
        | Const c1, [], Const c2, [] -> c1 = c2
        | Add, [ x; y ], Add, [ u; v ] | Mul, [ x; y ], Mul, [ u; v ] ->
          (teq x u && teq y v) || (teq x v && teq y u)
        | Sub, [ x; y ], Sub, [ u; v ] -> teq x u && teq y v
        | Shift_left k1, [ x ], Shift_left k2, [ u ] -> k1 = k2 && teq x u
        | Output n1, [ x ], Output n2, [ u ] -> n1 = n2 && teq x u
        | _ -> false
      in
      Hashtbl.replace memo (i, j) r;
      r
  in
  List.for_all
    (fun (nm, i) ->
      match List.assoc_opt nm (outputs b) with
      | Some j -> teq i j
      | None -> false)
    (outputs a)

let pp ppf t =
  Format.pp_open_vbox ppf 0;
  List.iter
    (fun i ->
      let n = get t i in
      let opname =
        match n.nop with
        | Input nm -> "input " ^ nm
        | Const c -> Printf.sprintf "const %d" c
        | Add -> "add"
        | Sub -> "sub"
        | Mul -> "mul"
        | Shift_left k -> Printf.sprintf "shl %d" k
        | Output nm -> "output " ^ nm
      in
      Format.fprintf ppf "%d: %s%s@," i opname
        (match n.nargs with
        | [] -> ""
        | args ->
          " (" ^ String.concat ", " (List.map string_of_int args) ^ ")"))
    (nodes t);
  Format.pp_close_box ppf ()
