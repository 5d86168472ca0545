(* Tests for the harness: summaries, table rendering, run drivers with
   their correctness oracle, and smoke evaluation of every experiment at
   the fast size. *)

module Arch = Sdt_march.Arch
module Config = Sdt_core.Config
module Suite = Sdt_workloads.Suite
module Run = Sdt_harness.Run
module Summary = Sdt_harness.Summary
module Table = Sdt_harness.Table
module Experiments = Sdt_harness.Experiments
module Meta = Sdt_harness.Meta
module Jsonw = Sdt_observe.Jsonw
module Pool = Sdt_par.Pool
module Serve = Sdt_serve.Serve
module Synthetic = Sdt_workloads.Synthetic

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

let feq msg a b = check bool msg true (abs_float (a -. b) < 1e-9)

(* ------------------------------------------------------------------ *)
(* Summary *)

let test_geomean () =
  feq "empty" 1.0 (Summary.geomean []);
  feq "singleton" 2.0 (Summary.geomean [ 2.0 ]);
  feq "pair" 2.0 (Summary.geomean [ 1.0; 4.0 ]);
  feq "order independent"
    (Summary.geomean [ 1.5; 2.5; 3.5 ])
    (Summary.geomean [ 3.5; 1.5; 2.5 ])

let test_means_and_rates () =
  feq "mean" 2.0 (Summary.mean [ 1.0; 2.0; 3.0 ]);
  feq "mean empty" 0.0 (Summary.mean []);
  feq "per_mille" 500.0 (Summary.per_mille 1 2);
  feq "per_mille zero denom" 0.0 (Summary.per_mille 5 0);
  feq "pct" 25.0 (Summary.pct 1 4);
  check Alcotest.string "millions" "1.23M" (Summary.millions 1_230_000);
  check Alcotest.string "f2" "1.50" (Summary.f2 1.5)

let prop_geomean_bounds =
  QCheck.Test.make ~count:200 ~name:"geomean between min and max"
    QCheck.(list_of_size Gen.(int_range 1 10) (float_range 0.1 100.0))
    (fun xs ->
      let g = Summary.geomean xs in
      let lo = List.fold_left min infinity xs in
      let hi = List.fold_left max neg_infinity xs in
      g >= lo -. 1e-9 && g <= hi +. 1e-9)

(* ------------------------------------------------------------------ *)
(* Table *)

let test_table_render () =
  let t =
    Table.make ~title:"demo" ~note:"a note"
      ~headers:[ "name"; "value" ]
      [ [ "alpha"; "1.00" ]; [ "longer-name"; "12.34" ] ]
  in
  let s = Table.render t in
  check bool "has title" true
    (String.length s > 0
    && String.sub s 0 7 = "== demo");
  (* numeric cells right-aligned: "12.34" ends its column *)
  let lines = String.split_on_char '\n' s in
  check bool "all rows present" true (List.length lines >= 5);
  let row =
    List.find
      (fun l -> String.length l >= 5 && String.sub l 0 5 = "alpha")
      lines
  in
  check bool "alpha row mentions value" true
    (String.length row >= String.length "alpha  1.00")

let test_table_csv () =
  let t =
    Table.make ~title:"c" ~headers:[ "a"; "b" ]
      [ [ "x,y"; "1" ]; [ "q\"z"; "2" ] ]
  in
  let csv = Table.to_csv t in
  check Alcotest.string "csv escaping" "a,b\n\"x,y\",1\n\"q\"\"z\",2\n" csv

let test_table_ragged_rows () =
  (* rows shorter than the header list must render without exception *)
  let t = Table.make ~title:"r" ~headers:[ "a"; "b"; "c" ] [ [ "x" ] ] in
  check bool "renders" true (String.length (Table.render t) > 0)

(* ------------------------------------------------------------------ *)
(* Run *)

let entry name = Option.get (Suite.find name)

let test_native_memoised () =
  Run.clear_cache ();
  let e = entry "gzip" in
  let calls = ref 0 in
  let build () =
    incr calls;
    Suite.program e `Test
  in
  let a = Run.native ~arch:Arch.arch_a ~key:"memo-test" build in
  let b = Run.native ~arch:Arch.arch_a ~key:"memo-test" build in
  check int "built once" 1 !calls;
  check int "same cycles" a.Run.n_cycles b.Run.n_cycles;
  (* a different arch is a different cache line *)
  let _ = Run.native ~arch:Arch.arch_b ~key:"memo-test" build in
  check int "rebuilt for other arch" 2 !calls

let test_sdt_result_sane () =
  Run.clear_cache ();
  let e = entry "gcc" in
  let build () = Suite.program e `Test in
  let s = Run.sdt ~arch:Arch.arch_a ~cfg:Config.default ~key:"sane" build in
  check bool "slowdown > 1" true (s.Run.slowdown > 1.0);
  check bool "slowdown < 30" true (s.Run.slowdown < 30.0);
  check bool "code emitted" true (s.Run.s_code_bytes > 0);
  check bool "runtime cycles subset" true
    (s.Run.s_runtime_cycles < s.Run.s_cycles)

let test_mismatch_detected () =
  Run.clear_cache ();
  let e = entry "gzip" in
  (* lie to the harness: native cached under this key is for a
     different program, so the SDT run must be flagged as divergent *)
  let _ =
    Run.native ~arch:Arch.arch_a ~key:"divergent" (fun () ->
        Suite.program (entry "mcf") `Test)
  in
  check bool "mismatch raises" true
    (match
       Run.sdt ~arch:Arch.arch_a ~cfg:Config.default ~key:"divergent"
         (fun () -> Suite.program e `Test)
     with
    | exception Run.Mismatch _ -> true
    | _ -> false)

(* ------------------------------------------------------------------ *)
(* Parallel evaluation and caching *)

(* a generator of arbitrary-but-valid SDT configurations, for the
   determinism property: whatever the mechanism, the jobs count must
   not change any reported number *)
let config_gen =
  let open QCheck.Gen in
  let pow2 lo hi = map (fun e -> 1 lsl e) (int_range lo hi) in
  let ibtc_gen =
    let* entries = pow2 5 12 in
    let* ways = oneofl [ 1; 2 ] in
    let* shared = bool in
    let* per_site_entries = pow2 2 5 in
    let* miss = oneofl [ Config.Full_switch; Config.Fast_reload ] in
    let* hash = oneofl [ Config.Shift_mask; Config.Multiplicative ] in
    let* inline_lookup = bool in
    return
      (Config.Ibtc
         { Config.entries; ways; shared; per_site_entries; miss; hash;
           inline_lookup })
  in
  let sieve_gen =
    let* buckets = pow2 5 12 in
    let* insert_at_head = bool in
    return (Config.Sieve { Config.buckets; insert_at_head })
  in
  let* mech = oneof [ return Config.Dispatch; ibtc_gen; sieve_gen ] in
  let* returns =
    oneof
      [
        return Config.As_ib;
        map (fun e -> Config.Return_cache { entries = 1 lsl e }) (int_range 4 10);
        map (fun d -> Config.Shadow_stack { depth = d }) (int_range 4 64);
        return Config.Fast_return;
      ]
  in
  let* pred_depth = int_range 0 4 in
  let* link_direct = bool in
  let cfg =
    { Config.default with Config.mech; returns; pred_depth; link_direct }
  in
  (* keep only mechanism/return combinations the translator accepts *)
  return
    (match Config.validate cfg with
    | Ok () -> cfg
    | Error _ -> { cfg with Config.returns = Config.As_ib })

let sdt_results cfg jobs =
  (* evaluate two workloads through a pool of the given width, then
     read every result back out of the cache *)
  let entries = List.map entry [ "gzip"; "mcf" ] in
  Run.clear_cache ();
  Pool.with_pool ~jobs (fun pool ->
      Pool.iter pool
        (fun e ->
          ignore
            (Run.sdt ~arch:Arch.arch_a ~cfg ~key:e.Suite.name (fun () ->
                 Suite.program e `Test)))
        (Array.of_list entries));
  List.map
    (fun e ->
      Run.sdt ~arch:Arch.arch_a ~cfg ~key:e.Suite.name (fun () ->
          Suite.program e `Test))
    entries

let prop_jobs_invariant =
  QCheck.Test.make ~count:6
    ~name:"random config: jobs in {1,2,4} give identical results"
    (QCheck.make config_gen ~print:Config.describe)
    (fun cfg ->
      let serial = sdt_results cfg 1 in
      List.for_all (fun jobs -> sdt_results cfg jobs = serial) [ 2; 4 ])

let render_all tables = String.concat "\n" (List.map Table.render tables)

let test_tables_jobs_invariant () =
  let e = Option.get (Experiments.find "F3") in
  let render jobs =
    Run.clear_cache ();
    Pool.with_pool ~jobs (fun pool ->
        ignore (Experiments.evaluate ~pool `Test e));
    render_all (e.Experiments.run `Test)
  in
  let serial = render 1 in
  List.iter
    (fun jobs ->
      check Alcotest.string
        (Printf.sprintf "jobs=%d tables byte-identical" jobs)
        serial (render jobs))
    [ 2; 4 ]

(* ------------------------------------------------------------------ *)
(* Experiments *)

let test_registry () =
  check int "18 experiments" 18 (List.length Experiments.experiments);
  check bool "find T1" true (Experiments.find "t1" <> None);
  check bool "find F8" true (Experiments.find "F8" <> None);
  check bool "find F10" true (Experiments.find "F10" <> None);
  check bool "unknown" true (Experiments.find "Z9" = None)

let experiment_cases =
  List.map
    (fun (e : Experiments.experiment) ->
      Alcotest.test_case
        (Printf.sprintf "%s renders" e.Experiments.id)
        `Slow
        (fun () ->
          Run.clear_cache ();
          (* the declared grid must cover every cell the renderer asks
             for: after [evaluate], [run] is pure cache lookups *)
          let cells = Experiments.evaluate `Test e in
          check bool "grid non-empty" true (cells > 0);
          let simulated_by_grid = (Run.cache_stats ()).Run.simulated in
          let tables = e.Experiments.run `Test in
          check int "grid covers the renderer"
            simulated_by_grid
            (Run.cache_stats ()).Run.simulated;
          check bool "at least one table" true (List.length tables >= 1);
          List.iter
            (fun t ->
              let s = Table.render t in
              check bool "non-empty render" true (String.length s > 100);
              check bool "has rows" true (List.length t.Table.rows >= 5))
            tables))
    Experiments.experiments

(* ------------------------------------------------------------------ *)
(* Exec mode and the activity counters *)

let test_exec_mode_round_trip () =
  List.iter
    (fun m ->
      let name = Run.exec_mode_name m in
      check bool ("round-trip " ^ name) true
        (Run.exec_mode_of_string name = Ok m))
    [ `Step; `Block; `Block_nochain; `Trace ];
  check bool "typo rejected" true
    (Result.is_error (Run.exec_mode_of_string "trce"))

(* The BENCH_<id>.json counter schema: bench writes exactly these keys,
   in this order, as per-experiment deltas of [Run.counters]. *)
let counter_keys =
  [
    "block_decodes"; "block_invalidations"; "chain_hits"; "chain_severs";
    "trace_compiles"; "trace_entries"; "side_exits"; "trace_severs";
    "adapt_promotions"; "adapt_demotions"; "adapt_repatches";
    "cfi_checks"; "cfi_violations"; "cfi_xcalls";
    "serve_jobs"; "serve_dedup_hits"; "serve_evictions"; "serve_flushes";
  ]

let test_counters () =
  check
    Alcotest.(list string)
    "keys and order" counter_keys
    (List.map fst (Run.counters ()));
  let delta f =
    let before = Run.counters () in
    f ();
    fun k -> List.assoc k (Run.counters ()) - List.assoc k before
  in
  let saved = Run.exec_mode () in
  Fun.protect ~finally:(fun () -> Run.set_exec_mode saved) @@ fun () ->
  (* the block-cache counters are zero under the per-step loop *)
  Run.set_exec_mode `Block;
  Run.clear_cache ();
  let d =
    delta (fun () ->
        ignore
          (Run.sdt ~arch:Arch.arch_a ~cfg:Config.default ~key:"counters"
             (fun () -> Suite.program (entry "gcc") `Test)))
  in
  check bool "sdt cell decodes blocks" true (d "block_decodes" > 0);
  check bool "sdt cell chains blocks" true (d "chain_hits" > 0);
  let micro =
    Serve.Micro
      {
        Synthetic.ib_sites = 3;
        targets = 6;
        fns = 2;
        recursion_depth = 1;
        iters = 100;
        seed = 1;
      }
  in
  let d =
    delta (fun () ->
        ignore
          (Run.serve
             (Serve.spec ~quantum:10_000 [ Serve.tenant ~jobs:2 "t" micro ])))
  in
  check int "serve spec counts its jobs" 2 (d "serve_jobs")

let test_meta_provenance () =
  (* running from the build tree, .git is found by walking up *)
  (match Meta.git_sha () with
  | Some sha ->
      check int "sha length" 40 (String.length sha);
      check bool "sha is hex" true
        (String.for_all
           (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false)
           sha)
  | None -> ());
  check bool "hostname non-empty" true (String.length (Meta.hostname ()) > 0);
  match Meta.to_json ~jobs:3 ~exec_mode:"step" ~cache:"warm" () with
  | Jsonw.Obj fields ->
      check bool "jobs" true (List.assoc_opt "jobs" fields = Some (Jsonw.Int 3));
      check bool "exec_mode" true
        (List.assoc_opt "exec_mode" fields = Some (Jsonw.Str "step"));
      check bool "unix_time present" true (List.mem_assoc "unix_time" fields)
  | _ -> Alcotest.fail "meta json shape"

let test_baseline_worse_than_default () =
  Run.clear_cache ();
  let worse = ref 0 in
  List.iter
    (fun name ->
      let e = entry name in
      let build () = Suite.program e `Test in
      let b = Run.sdt ~arch:Arch.arch_a ~cfg:Config.baseline ~key:name build in
      let d = Run.sdt ~arch:Arch.arch_a ~cfg:Config.default ~key:name build in
      if b.Run.slowdown > d.Run.slowdown then incr worse)
    [ "gcc"; "eon"; "perlbmk"; "vortex" ];
  check int "dispatch worse on all IB-heavy workloads" 4 !worse

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "sdt_harness"
    [
      ( "summary",
        [
          Alcotest.test_case "geomean" `Quick test_geomean;
          Alcotest.test_case "means and rates" `Quick test_means_and_rates;
          qt prop_geomean_bounds;
        ] );
      ( "table",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "ragged rows" `Quick test_table_ragged_rows;
          Alcotest.test_case "csv export" `Quick test_table_csv;
        ] );
      ( "run",
        [
          Alcotest.test_case "native memoised" `Quick test_native_memoised;
          Alcotest.test_case "sdt results sane" `Quick test_sdt_result_sane;
          Alcotest.test_case "divergence detected" `Quick test_mismatch_detected;
        ] );
      ( "counters",
        [
          Alcotest.test_case "exec mode round-trip" `Quick
            test_exec_mode_round_trip;
          Alcotest.test_case "schema and sources" `Quick test_counters;
        ] );
      ("meta", [ Alcotest.test_case "provenance" `Quick test_meta_provenance ]);
      ( "parallel",
        [
          qt prop_jobs_invariant;
          Alcotest.test_case "tables invariant under jobs" `Slow
            test_tables_jobs_invariant;
        ] );
      ( "experiments",
        Alcotest.test_case "registry" `Quick test_registry
        :: Alcotest.test_case "IB-heavy ordering" `Quick
             test_baseline_worse_than_default
        :: experiment_cases );
    ]
