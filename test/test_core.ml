(* Tests for the core library: Rng, Power_model, Stats, Table, Config. *)

open Test_util

let module_rng = Lowpower.Rng.create 42

let test_rng_determinism () =
  let a = Lowpower.Rng.create 7 and b = Lowpower.Rng.create 7 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Lowpower.Rng.bits64 a)
      (Lowpower.Rng.bits64 b)
  done

let test_rng_seeds_differ () =
  let a = Lowpower.Rng.create 1 and b = Lowpower.Rng.create 2 in
  Alcotest.(check bool) "different seeds diverge" true
    (Lowpower.Rng.bits64 a <> Lowpower.Rng.bits64 b)

let test_rng_copy () =
  let a = Lowpower.Rng.create 5 in
  ignore (Lowpower.Rng.bits64 a);
  let b = Lowpower.Rng.copy a in
  Alcotest.(check int64) "copy tracks" (Lowpower.Rng.bits64 a)
    (Lowpower.Rng.bits64 b)

let test_rng_split_independent () =
  let a = Lowpower.Rng.create 5 in
  let c = Lowpower.Rng.split a in
  let x = Lowpower.Rng.bits64 a and y = Lowpower.Rng.bits64 c in
  Alcotest.(check bool) "split streams differ" true (x <> y)

let test_rng_int_bounds () =
  for _ = 1 to 1000 do
    let v = Lowpower.Rng.int module_rng 13 in
    if v < 0 || v >= 13 then Alcotest.fail "Rng.int out of bounds"
  done;
  expect_invalid_arg "zero bound" (fun () -> Lowpower.Rng.int module_rng 0)

let test_rng_float_bounds () =
  for _ = 1 to 1000 do
    let v = Lowpower.Rng.float module_rng 2.5 in
    if v < 0.0 || v >= 2.5 then Alcotest.fail "Rng.float out of bounds"
  done

let test_rng_bernoulli_mean () =
  let n = 20_000 in
  let hits = ref 0 in
  for _ = 1 to n do
    if Lowpower.Rng.bernoulli module_rng 0.3 then incr hits
  done;
  check_close_rel ~eps:0.06 "bernoulli mean" 0.3
    (float_of_int !hits /. float_of_int n)

let test_rng_shuffle_permutes () =
  let arr = Array.init 20 (fun i -> i) in
  Lowpower.Rng.shuffle module_rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "same multiset" (Array.init 20 (fun i -> i)) sorted

let test_rng_gaussian_moments () =
  let n = 20_000 in
  let samples =
    List.init n (fun _ ->
        Lowpower.Rng.gaussian module_rng ~mean:3.0 ~stddev:2.0)
  in
  check_close_rel ~eps:0.05 "gaussian mean" 3.0 (Lowpower.Stats.mean samples);
  check_close_rel ~eps:0.05 "gaussian stddev" 2.0 (Lowpower.Stats.stddev samples)

let test_rng_pick () =
  expect_invalid_arg "empty pick" (fun () -> Lowpower.Rng.pick module_rng [||]);
  let v = Lowpower.Rng.pick module_rng [| 9 |] in
  Alcotest.(check int) "singleton pick" 9 v

(* --- Power model --- *)

let test_power_terms () =
  let p = { Lowpower.Power_model.vdd = 2.0; freq = 1.0e6; qsc = 1.0e-15;
            i_leak = 1.0e-6 } in
  let b = Lowpower.Power_model.power p ~capacitance:1.0e-12 ~activity:0.5 in
  (* 0.5 * 1p * 4 * 1e6 * 0.5 = 1e-6 W *)
  check_close "switching" 1.0e-6 b.Lowpower.Power_model.switching;
  (* 1e-15 * 2 * 1e6 * 0.5 = 1e-9 *)
  check_close "short circuit" 1.0e-9 b.Lowpower.Power_model.short_circuit;
  check_close "leakage" 2.0e-6 b.Lowpower.Power_model.leakage

let test_power_total_and_fraction () =
  let b = { Lowpower.Power_model.switching = 9.0; short_circuit = 0.5;
            leakage = 0.5 } in
  check_close "total" 10.0 (Lowpower.Power_model.total b);
  check_close "fraction" 0.9 (Lowpower.Power_model.switching_fraction b)

let test_power_default_switching_dominates () =
  (* With representative parameters, the switching term exceeds 90% of the
     total — the paper's Eqn. 1 discussion. *)
  let p = Lowpower.Power_model.default_params in
  let b = Lowpower.Power_model.power p ~capacitance:50.0e-12 ~activity:10.0 in
  Alcotest.(check bool) "switching > 90%" true
    (Lowpower.Power_model.switching_fraction b > 0.9)

let test_voltage_scaling_quadratic () =
  let p = Lowpower.Power_model.default_params in
  let half = Lowpower.Power_model.scale_voltage p (p.Lowpower.Power_model.vdd /. 2.0) in
  let b1 = Lowpower.Power_model.power p ~capacitance:1.0e-12 ~activity:1.0 in
  let b2 = Lowpower.Power_model.power half ~capacitance:1.0e-12 ~activity:1.0 in
  check_close_rel ~eps:1e-6 "quadratic drop" 4.0
    (b1.Lowpower.Power_model.switching /. b2.Lowpower.Power_model.switching)

let test_gate_delay_grows_at_low_vdd () =
  let p = Lowpower.Power_model.default_params in
  let d_hi = Lowpower.Power_model.gate_delay p ~v_threshold:0.7 ~drive:1.0 ~load:1.0 in
  let low = Lowpower.Power_model.scale_voltage p 1.2 in
  let d_lo = Lowpower.Power_model.gate_delay low ~v_threshold:0.7 ~drive:1.0 ~load:1.0 in
  Alcotest.(check bool) "slower at low vdd" true (d_lo > d_hi)

let test_gate_delay_invalid () =
  let p = Lowpower.Power_model.scale_voltage Lowpower.Power_model.default_params 0.5 in
  expect_invalid_arg "below threshold" (fun () ->
      Lowpower.Power_model.gate_delay p ~v_threshold:0.7 ~drive:1.0 ~load:1.0)

let test_max_frequency_ref_point () =
  let p = Lowpower.Power_model.default_params in
  let f =
    Lowpower.Power_model.max_frequency p ~v_threshold:0.7
      ~critical_delay_at_vdd:10.0e-9 ~ref_vdd:p.Lowpower.Power_model.vdd
  in
  check_close_rel ~eps:1e-9 "at reference vdd, f = 1/delay" 1.0e8 f

(* --- Stats --- *)

let test_stats_mean_stddev () =
  check_close "mean" 2.0 (Lowpower.Stats.mean [ 1.0; 2.0; 3.0 ]);
  check_close "mean empty" 0.0 (Lowpower.Stats.mean []);
  check_close "stddev" (sqrt (2.0 /. 3.0))
    (Lowpower.Stats.stddev [ 1.0; 2.0; 3.0 ])

let test_stats_minmax () =
  check_close "min" 1.0 (Lowpower.Stats.minimum [ 3.0; 1.0; 2.0 ]);
  check_close "max" 3.0 (Lowpower.Stats.maximum [ 3.0; 1.0; 2.0 ]);
  expect_invalid_arg "min empty" (fun () -> Lowpower.Stats.minimum [])

let test_stats_correlation () =
  check_close "perfect" 1.0
    (Lowpower.Stats.correlation [ 1.0; 2.0; 3.0 ] [ 2.0; 4.0; 6.0 ]);
  check_close "anti" (-1.0)
    (Lowpower.Stats.correlation [ 1.0; 2.0; 3.0 ] [ 3.0; 2.0; 1.0 ]);
  check_close "constant series" 0.0
    (Lowpower.Stats.correlation [ 1.0; 1.0; 1.0 ] [ 1.0; 2.0; 3.0 ]);
  expect_invalid_arg "length mismatch" (fun () ->
      Lowpower.Stats.correlation [ 1.0 ] [ 1.0; 2.0 ])

let test_stats_errors () =
  check_close "rms" 1.0 (Lowpower.Stats.rms_error [ 1.0; 3.0 ] [ 2.0; 2.0 ]);
  check_close "mape" 0.5
    (Lowpower.Stats.mean_abs_pct_error [ 1.0; 3.0 ] [ 2.0; 2.0 ])

(* --- Table --- *)

let test_table_renders () =
  let t =
    Lowpower.Table.create ~caption:"cap"
      [ ("name", Lowpower.Table.Left); ("v", Lowpower.Table.Right) ]
  in
  Lowpower.Table.add_row t [ "a"; "1" ];
  Lowpower.Table.add_rule t;
  Lowpower.Table.add_row t [ "bb"; "22" ];
  Lowpower.Table.note t "a note";
  let s = Format.asprintf "%a" Lowpower.Table.pp t in
  Alcotest.(check bool) "caption present" true
    (String.length s > 0 && String.sub s 0 3 = "cap");
  Alcotest.(check bool) "note present" true
    (String.length s > 0
    && Option.is_some (String.index_opt s ':'))

let test_table_arity () =
  let t = Lowpower.Table.create [ ("a", Lowpower.Table.Left) ] in
  expect_invalid_arg "arity" (fun () -> Lowpower.Table.add_row t [ "x"; "y" ])

let test_table_cells () =
  Alcotest.(check string) "float" "1.500" (Lowpower.Table.cell_float 1.5);
  Alcotest.(check string) "pct" "37.2%" (Lowpower.Table.cell_pct 0.372);
  Alcotest.(check string) "ratio" "1.83x" (Lowpower.Table.cell_ratio 1.83)

(* --- Config: parsed through a fake lookup, never the real environment --- *)

module Config = Lowpower.Config

let config env = Config.of_lookup (fun var -> List.assoc_opt var env)

let mentions msg part =
  let n = String.length part in
  let rec go i =
    i + n <= String.length msg && (String.sub msg i n = part || go (i + 1))
  in
  go 0

(* Per setting: its variable, its field as text, the value when unset,
   accepted values (every one CI sets among them) with what they parse
   to, then one malformed and one out-of-range value. *)
let config_settings =
  [
    ( "LOWPOWER_VERIFY",
      (fun c ->
        match c.Config.verify with
        | `Off -> "off" | `Sat -> "sat" | `Bdd -> "bdd"),
      "off", [ ("sat", "sat"); ("bdd", "bdd"); ("off", "off") ], "yes", "SAT" );
    ( "LOWPOWER_SERVE_DOMAINS", (fun c -> string_of_int c.Config.serve_domains),
      string_of_int (max 1 (min 8 (Domain.recommended_domain_count ()))),
      [ ("4", "4"); ("1", "1"); ("128", "128") ], " 4", "129" );
  ]

let config_test (var, field, default, accepted, malformed, out_of_range) () =
  Alcotest.(check string) "unset gives the default" default (field (config []));
  List.iter
    (fun (v, expected) ->
      let c = config [ (var, v) ] in
      Alcotest.(check string) (var ^ "=" ^ v) expected (field c);
      (* The other settings keep their defaults. *)
      List.iter
        (fun (var', field', default', _, _, _) ->
          if var' <> var then
            Alcotest.(check string) (var' ^ " untouched") default' (field' c))
        config_settings)
    accepted;
  List.iter
    (fun bad ->
      match config [ (var, bad) ] with
      | _ -> Alcotest.failf "%s=%S accepted" var bad
      | exception Invalid_argument msg ->
        Alcotest.(check bool) ("message names " ^ var) true
          (mentions msg var && mentions msg "accepted values"))
    [ malformed; out_of_range ]

let test_config_to_string () =
  Alcotest.(check string) "one line, every setting"
    "config: verify=off serve_domains=2"
    (Config.to_string (config [ ("LOWPOWER_SERVE_DOMAINS", "2") ]));
  Alcotest.(check string) "get parses the process environment"
    (Config.to_string (Config.of_lookup Sys.getenv_opt))
    (Config.to_string (Config.get ()))

let suite =
  [
    quick "rng determinism" test_rng_determinism;
    quick "rng seeds differ" test_rng_seeds_differ;
    quick "rng copy" test_rng_copy;
    quick "rng split" test_rng_split_independent;
    quick "rng int bounds" test_rng_int_bounds;
    quick "rng float bounds" test_rng_float_bounds;
    quick "rng bernoulli mean" test_rng_bernoulli_mean;
    quick "rng shuffle permutes" test_rng_shuffle_permutes;
    quick "rng gaussian moments" test_rng_gaussian_moments;
    quick "rng pick" test_rng_pick;
    quick "power eqn1 terms" test_power_terms;
    quick "power total and fraction" test_power_total_and_fraction;
    quick "power switching dominates (paper Eqn 1)" test_power_default_switching_dominates;
    quick "power quadratic voltage scaling" test_voltage_scaling_quadratic;
    quick "gate delay grows at low vdd" test_gate_delay_grows_at_low_vdd;
    quick "gate delay below threshold rejected" test_gate_delay_invalid;
    quick "max frequency at reference" test_max_frequency_ref_point;
    quick "stats mean stddev" test_stats_mean_stddev;
    quick "stats min max" test_stats_minmax;
    quick "stats correlation" test_stats_correlation;
    quick "stats error metrics" test_stats_errors;
    quick "table renders" test_table_renders;
    quick "table arity check" test_table_arity;
    quick "table cell formats" test_table_cells;
    quick "config to_string and get" test_config_to_string;
  ]
  @ List.map
      (fun ((var, _, _, _, _, _) as setting) ->
        quick ("config " ^ var) (config_test setting))
      config_settings
