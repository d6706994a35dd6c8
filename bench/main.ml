(* Experiment harness: regenerates every reproduction target (E1..E17, one
   per surveyed technique; see DESIGN.md and EXPERIMENTS.md), then runs the
   Bechamel microbenchmarks.

   Usage: main.exe [experiment-name ...] | main.exe --list *)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  match args with
  | [ "--list" ] ->
    List.iter (fun (name, _) -> print_endline name) Experiments.all;
    print_endline "microbench"
  | [] ->
    print_endline
      "Low-power VLSI optimization toolkit - experiment harness (Devadas & \
       Malik, DAC'95 survey reproduction)";
    print_endline (Lowpower.Config.to_string (Lowpower.Config.get ()));
    print_newline ();
    List.iter (fun (_, f) -> f ()) Experiments.all;
    Microbench.run ()
  | names ->
    List.iter
      (fun name ->
        if name = "microbench" then Microbench.run ()
        else
          match List.assoc_opt name Experiments.all with
          | Some f -> f ()
          | None ->
            Printf.eprintf "unknown experiment %s (try --list)\n" name;
            exit 1)
      names
