module Arch = Sdt_march.Arch
module Config = Sdt_core.Config
module Stats = Sdt_core.Stats
module Suite = Sdt_workloads.Suite
module Synthetic = Sdt_workloads.Synthetic
module Fingerprint = Sdt_par.Fingerprint
module Pool = Sdt_par.Pool
module Serve = Sdt_serve.Serve
module Store = Sdt_serve.Store

type size = [ `Test | `Ref ]

type cell = {
  cell_entry : Suite.entry;
  cell_arch : Arch.t;
  cell_cfg : Config.t option;  (** [None] = the native run *)
}

type experiment = {
  id : string;
  title : string;
  grid : cell list;
  serves : size -> Serve.spec list;
  run : size -> Table.t list;
}

(* every single-run experiment; only F11 declares service specs *)
let no_serves (_ : size) : Serve.spec list = []

let key e (size : size) =
  e.Suite.name ^ match size with `Test -> ":test" | `Ref -> ":ref"

let build e (size : size) () = Suite.program e size

let native ?(arch = Arch.arch_a) e size =
  Run.native ~arch ~key:(key e size) (build e size)

let sdt ?(arch = Arch.arch_a) ~cfg e size =
  Run.sdt ~arch ~cfg ~key:(key e size) (build e size)

(* Every experiment measures (suite × its configs × its arches), plus
   the native run each SDT cell normalises against. *)
let grid_of ?(arches = [ Arch.arch_a ]) cfgs =
  List.concat_map
    (fun e ->
      List.concat_map
        (fun arch ->
          { cell_entry = e; cell_arch = arch; cell_cfg = None }
          :: List.map
               (fun cfg ->
                 { cell_entry = e; cell_arch = arch; cell_cfg = Some cfg })
               cfgs)
        arches)
    Suite.all

let cell_fingerprint c size =
  Fingerprint.cell
    ~key:(key c.cell_entry size)
    ~arch:c.cell_arch ~cfg:c.cell_cfg

let evaluate ?pool size e =
  let seen = Hashtbl.create 256 in
  let fresh c =
    let fp = cell_fingerprint c size in
    if Hashtbl.mem seen fp then false
    else begin
      Hashtbl.add seen fp ();
      true
    end
  in
  let cells = List.filter fresh e.grid in
  (* natives first: an SDT cell's thunk starts by looking up its native
     counterpart, and pre-seeding keeps workers simulating instead of
     blocking on the single-flight lock *)
  let natives, sdts =
    List.partition (fun c -> c.cell_cfg = None) cells
  in
  let eval c =
    match c.cell_cfg with
    | None -> ignore (native ~arch:c.cell_arch c.cell_entry size)
    | Some cfg -> ignore (sdt ~arch:c.cell_arch ~cfg c.cell_entry size)
  in
  let batch = function
    | [] -> ()
    | cells -> (
        match pool with
        | None -> List.iter eval cells
        | Some p -> Pool.iter p eval (Array.of_list cells))
  in
  batch natives;
  batch sdts;
  (* service runs last: their memo is single-flight like the cells',
     and the engine itself stays serial (the pool is not reentrant) —
     parallelism comes from independent specs *)
  let serve_seen = Hashtbl.create 32 in
  let specs =
    List.filter
      (fun s ->
        let fp = Fingerprint.of_value s in
        if Hashtbl.mem serve_seen fp then false
        else begin
          Hashtbl.add serve_seen fp ();
          true
        end)
      (e.serves size)
  in
  (match (specs, pool) with
  | [], _ -> ()
  | specs, None -> List.iter (fun s -> ignore (Run.serve s)) specs
  | specs, Some p ->
      Pool.iter p (fun s -> ignore (Run.serve s)) (Array.of_list specs));
  List.length cells + List.length specs

let app_ibs (n : Run.native) = n.Run.n_ijumps + n.Run.n_icalls + n.Run.n_returns

(* configuration constructors *)

let ibtc ?(entries = 4096) ?(ways = 1) ?(shared = true) ?(per_site = 64)
    ?(miss = Config.Fast_reload) ?(hash = Config.Shift_mask) ?(inline = true)
    ?(returns = Config.As_ib) ?(pred = 0) () =
  {
    Config.default with
    mech =
      Config.Ibtc
        {
          entries;
          ways;
          shared;
          per_site_entries = per_site;
          miss;
          hash;
          inline_lookup = inline;
        };
    returns;
    pred_depth = pred;
  }

let sieve ?(buckets = 4096) ?(head = true) ?(returns = Config.As_ib) () =
  {
    Config.default with
    mech = Config.Sieve { buckets; insert_at_head = head };
    returns;
  }

let geomean_row label values =
  label :: List.map (fun v -> Summary.f2 v) values

(* ------------------------------------------------------------------ *)
(* T1 *)

let table_ib_characteristics size =
  let rows =
    List.map
      (fun e ->
        let n = native e size in
        [
          e.Suite.name;
          Summary.millions n.Run.n_instrs;
          Summary.f2 (Summary.per_mille n.Run.n_ijumps n.Run.n_instrs);
          Summary.f2 (Summary.per_mille n.Run.n_icalls n.Run.n_instrs);
          Summary.f2 (Summary.per_mille n.Run.n_returns n.Run.n_instrs);
          Summary.f2 (Summary.per_mille (app_ibs n) n.Run.n_instrs);
        ])
      Suite.all
  in
  let means =
    let col f =
      Summary.mean
        (List.map
           (fun e ->
             let n = native e size in
             Summary.per_mille (f n) n.Run.n_instrs)
           Suite.all)
    in
    [
      "mean";
      "";
      Summary.f2 (col (fun n -> n.Run.n_ijumps));
      Summary.f2 (col (fun n -> n.Run.n_icalls));
      Summary.f2 (col (fun n -> n.Run.n_returns));
      Summary.f2 (col app_ibs);
    ]
  in
  [
    Table.make ~title:"T1: dynamic indirect-branch characteristics"
      ~note:
        "Per-benchmark dynamic counts, per 1000 executed instructions \
         (native run). Returns dominate; interpreters (perlbmk, gap) and \
         OO codes (eon, vortex) are IB-heavy; mcf/bzip2 are IB-free."
      ~headers:
        [ "benchmark"; "instrs"; "ijump/1k"; "icall/1k"; "return/1k"; "IB/1k" ]
      (rows @ [ means ]);
  ]

(* ------------------------------------------------------------------ *)
(* F1 *)

let f1_cfgs = [ Config.baseline ]

let fig_baseline_overhead size =
  let rows =
    List.map
      (fun e ->
        let n = native e size in
        let s = sdt ~cfg:Config.baseline e size in
        [
          e.Suite.name;
          Summary.f2 s.Run.slowdown;
          Summary.f1 (Summary.pct s.Run.s_runtime_cycles s.Run.s_cycles);
          Summary.f2
            (Summary.per_mille s.Run.s_stats.Stats.dispatch_entries
               n.Run.n_instrs);
          Summary.f1 (float_of_int s.Run.s_code_bytes /. 1024.0);
        ])
      Suite.all
  in
  let gm =
    Summary.geomean
      (List.map (fun e -> (sdt ~cfg:Config.baseline e size).Run.slowdown) Suite.all)
  in
  [
    Table.make ~title:"F1: baseline SDT overhead (translator dispatch for every IB)"
      ~note:
        "Slowdown vs native on archA; runtime% = cycles spent inside the \
         translator runtime; switches/1k = full context switches per 1000 \
         application instructions."
      ~headers:[ "benchmark"; "slowdown"; "runtime%"; "switch/1k"; "code KB" ]
      (rows @ [ geomean_row "geomean" [ gm ] ]);
  ]

(* ------------------------------------------------------------------ *)
(* F2 *)

let ibtc_sizes = [ 16; 64; 256; 1024; 4096; 65536 ]
let f2_cfgs = List.map (fun entries -> ibtc ~entries ()) ibtc_sizes

let fig_ibtc_size_sweep size =
  let measure e entries = sdt ~cfg:(ibtc ~entries ()) e size in
  let slow_rows =
    List.map
      (fun e ->
        e.Suite.name
        :: List.map (fun n -> Summary.f2 (measure e n).Run.slowdown) ibtc_sizes)
      Suite.all
  in
  let gm =
    "geomean"
    :: List.map
         (fun n ->
           Summary.f2
             (Summary.geomean
                (List.map (fun e -> (measure e n).Run.slowdown) Suite.all)))
         ibtc_sizes
  in
  let miss_rows =
    List.map
      (fun e ->
        let nat = native e size in
        e.Suite.name
        :: List.map
             (fun n ->
               let s = measure e n in
               let misses =
                 s.Run.s_stats.Stats.ibtc_misses_fast
                 + s.Run.s_stats.Stats.ibtc_misses_full
               in
               Summary.f2 (Summary.pct misses (app_ibs nat)))
             ibtc_sizes)
      Suite.all
  in
  let headers = "benchmark" :: List.map string_of_int ibtc_sizes in
  [
    Table.make ~title:"F2a: shared IBTC size sweep — slowdown vs native (archA)"
      ~note:
        "Returns handled through the IBTC (as-ib). Slowdown falls until \
         the table covers the IB target working set, then flattens."
      ~headers (slow_rows @ [ gm ]);
    Table.make ~title:"F2b: shared IBTC size sweep — miss rate (% of dynamic IBs)"
      ~headers miss_rows;
  ]

(* ------------------------------------------------------------------ *)
(* F3 *)

let f3_cfgs =
  [
    ("shared-4096", ibtc ~entries:4096 ());
    ("per-branch-16", ibtc ~shared:false ~per_site:16 ());
    ("per-branch-64", ibtc ~shared:false ~per_site:64 ());
    ("per-branch-256", ibtc ~shared:false ~per_site:256 ());
  ]

let fig_ibtc_sharing size =
  let cfgs = f3_cfgs in
  let rows =
    List.map
      (fun e ->
        e.Suite.name
        :: List.map (fun (_, cfg) -> Summary.f2 (sdt ~cfg e size).Run.slowdown) cfgs)
      Suite.all
  in
  let gm =
    "geomean"
    :: List.map
         (fun (_, cfg) ->
           Summary.f2
             (Summary.geomean
                (List.map (fun e -> (sdt ~cfg e size).Run.slowdown) Suite.all)))
         cfgs
  in
  [
    Table.make ~title:"F3: shared vs per-branch IBTC — slowdown (archA)"
      ~note:
        "Per-branch tables avoid cross-branch interference but replicate \
         code and cold-miss every site; monomorphic sites love them, \
         megamorphic interpreters prefer one big shared table."
      ~headers:("benchmark" :: List.map fst cfgs)
      (rows @ [ gm ]);
  ]

(* ------------------------------------------------------------------ *)
(* F4 *)

let f4_cfgs =
  [
    ("64/full", ibtc ~entries:64 ~miss:Config.Full_switch ());
    ("64/fast", ibtc ~entries:64 ~miss:Config.Fast_reload ());
    ("1024/full", ibtc ~entries:1024 ~miss:Config.Full_switch ());
    ("1024/fast", ibtc ~entries:1024 ~miss:Config.Fast_reload ());
  ]

let fig_ibtc_miss_policy size =
  let cfgs = f4_cfgs in
  let rows =
    List.map
      (fun e ->
        e.Suite.name
        :: List.map (fun (_, cfg) -> Summary.f2 (sdt ~cfg e size).Run.slowdown) cfgs)
      Suite.all
  in
  let gm =
    "geomean"
    :: List.map
         (fun (_, cfg) ->
           Summary.f2
             (Summary.geomean
                (List.map (fun e -> (sdt ~cfg e size).Run.slowdown) Suite.all)))
         cfgs
  in
  [
    Table.make
      ~title:"F4: IBTC miss handling — full context switch vs fast reload (archA)"
      ~note:
        "The gap between full and fast widens as the table shrinks (more \
         misses); with a big table, misses are rare and the policies \
         converge."
      ~headers:("benchmark" :: List.map fst cfgs)
      (rows @ [ gm ]);
  ]

(* ------------------------------------------------------------------ *)
(* F5 *)

let sieve_sizes = [ 16; 64; 256; 1024; 4096; 65536 ]
let f5_cfgs = List.map (fun buckets -> sieve ~buckets ()) sieve_sizes

let fig_sieve_sweep size =
  let measure e buckets = sdt ~cfg:(sieve ~buckets ()) e size in
  let rows =
    List.map
      (fun e ->
        e.Suite.name
        :: List.map (fun n -> Summary.f2 (measure e n).Run.slowdown) sieve_sizes)
      Suite.all
  in
  let gm =
    "geomean"
    :: List.map
         (fun n ->
           Summary.f2
             (Summary.geomean
                (List.map (fun e -> (measure e n).Run.slowdown) Suite.all)))
         sieve_sizes
  in
  let chain_rows =
    List.map
      (fun e ->
        let s = measure e 64 in
        let get k = Option.value (List.assoc_opt k s.Run.s_mech) ~default:0.0 in
        [
          e.Suite.name;
          string_of_int (int_of_float (get "sieve_stubs"));
          Summary.f2 (get "sieve_avg_chain");
          string_of_int (int_of_float (get "sieve_max_chain"));
        ])
      Suite.all
  in
  [
    Table.make ~title:"F5a: sieve bucket-count sweep — slowdown vs native (archA)"
      ~note:"Returns handled through the sieve (as-ib)."
      ~headers:("benchmark" :: List.map string_of_int sieve_sizes)
      (rows @ [ gm ]);
    Table.make ~title:"F5b: sieve chain shape at 64 buckets (deliberately crowded)"
      ~headers:[ "benchmark"; "stubs"; "avg chain"; "max chain" ]
      chain_rows;
  ]

(* ------------------------------------------------------------------ *)
(* F6 *)

let return_cfgs =
  [
    ("as-ib", Config.As_ib);
    ("retcache-4096", Config.Return_cache { entries = 4096 });
    ("shadow-1024", Config.Shadow_stack { depth = 1024 });
    ("fast", Config.Fast_return);
  ]

let f6_cfgs = List.map (fun (_, returns) -> ibtc ~returns ()) return_cfgs

let fig_return_handling size =
  let rows =
    List.map
      (fun e ->
        e.Suite.name
        :: List.map
             (fun (_, returns) ->
               Summary.f2 (sdt ~cfg:(ibtc ~returns ()) e size).Run.slowdown)
             return_cfgs)
      Suite.all
  in
  let gm =
    "geomean"
    :: List.map
         (fun (_, returns) ->
           Summary.f2
             (Summary.geomean
                (List.map
                   (fun e -> (sdt ~cfg:(ibtc ~returns ()) e size).Run.slowdown)
                   Suite.all)))
         return_cfgs
  in
  [
    Table.make
      ~title:"F6: return handling over a shared 4096-entry IBTC (archA)"
      ~note:
        "Returns dominate dynamic IBs, so return-specific mechanisms \
         recover most of the remaining overhead; non-transparent fast \
         returns are the floor."
      ~headers:("benchmark" :: List.map fst return_cfgs)
      (rows @ [ gm ]);
  ]

(* ------------------------------------------------------------------ *)
(* F7 *)

let f7_depths = [ 0; 1; 2; 4 ]

let f7_cfg d =
  ibtc ~returns:(Config.Return_cache { entries = 4096 }) ~pred:d ()

let f7_cfgs = List.map f7_cfg f7_depths

let fig_target_prediction size =
  let depths = f7_depths in
  let cfg = f7_cfg in
  let rows =
    List.map
      (fun e ->
        e.Suite.name
        :: List.map
             (fun d -> Summary.f2 (sdt ~cfg:(cfg d) e size).Run.slowdown)
             depths)
      Suite.all
  in
  let gm =
    "geomean"
    :: List.map
         (fun d ->
           Summary.f2
             (Summary.geomean
                (List.map (fun e -> (sdt ~cfg:(cfg d) e size).Run.slowdown) Suite.all)))
         depths
  in
  [
    Table.make
      ~title:"F7: inline target prediction depth (over IBTC + return cache, archA)"
      ~note:
        "Depth helps sites with 1-2 hot targets (virtual calls) and adds \
         pure overhead to megamorphic interpreter dispatch."
      ~headers:("benchmark" :: List.map (fun d -> "depth " ^ string_of_int d) depths)
      (rows @ [ gm ]);
  ]

(* ------------------------------------------------------------------ *)
(* F8 *)

let cross_arch_cfgs =
  let rc = Config.Return_cache { entries = 4096 } in
  [
    ("dispatch", Config.baseline);
    ("ibtc-full+retcache", ibtc ~miss:Config.Full_switch ~returns:rc ());
    ("ibtc+retcache", ibtc ~returns:rc ());
    ("ibtc+pred2+retcache", ibtc ~returns:rc ~pred:2 ());
    ("sieve+retcache", sieve ~returns:rc ());
    ("ibtc+fastret", ibtc ~returns:Config.Fast_return ());
    ("ibtc+pred2+fastret", ibtc ~returns:Config.Fast_return ~pred:2 ());
    ("sieve+fastret", sieve ~returns:Config.Fast_return ());
  ]

let cross_arches = [ Arch.arch_a; Arch.arch_b; Arch.arch_c ]

let fig_cross_arch size =
  let arches = cross_arches in
  let gms =
    List.map
      (fun (name, cfg) ->
        ( name,
          List.map
            (fun arch ->
              Summary.geomean
                (List.map
                   (fun e -> (sdt ~arch ~cfg e size).Run.slowdown)
                   Suite.all))
            arches ))
      cross_arch_cfgs
  in
  let rank col row_value =
    let values = List.map (fun (_, vs) -> List.nth vs col) gms in
    1 + List.length (List.filter (fun v -> v < row_value) values)
  in
  let rows =
    List.map
      (fun (name, vs) ->
        name
        :: List.concat
             (List.mapi
                (fun col v -> [ Summary.f2 v; string_of_int (rank col v) ])
                vs))
      gms
  in
  [
    Table.make ~title:"F8: cross-architecture comparison (geomean slowdowns)"
      ~note:
        "archA: x86-like (BTB + RAS, costly mispredicts, scratch \
         registers spilled). archB: SPARC-like (no indirect predictor, \
         fixed indirect cost, costlier memory, register windows). archC: \
         embedded in-order (no prediction hardware at all; instruction \
         count decides). The best mechanism/configuration changes with \
         the architecture."
      ~headers:
        [ "configuration"; "archA"; "rkA"; "archB"; "rkB"; "archC"; "rkC" ]
      rows;
  ]

(* ------------------------------------------------------------------ *)
(* F9 *)

let best_candidates = cross_arch_cfgs

let fig_best_config size =
  let rows =
    List.map
      (fun e ->
        let best arch =
          List.fold_left
            (fun (bn, bs) (name, cfg) ->
              let s = (sdt ~arch ~cfg e size).Run.slowdown in
              if s < bs then (name, s) else (bn, bs))
            ("", infinity) best_candidates
        in
        let na, sa = best Arch.arch_a in
        let nb, sb = best Arch.arch_b in
        let nc, sc = best Arch.arch_c in
        [
          e.Suite.name;
          Summary.f2 sa;
          na;
          Summary.f2 sb;
          nb;
          Summary.f2 sc;
          nc;
          (if na <> nb || nb <> nc then "<- differs" else "");
        ])
      Suite.all
  in
  [
    Table.make ~title:"F9: best configuration per benchmark"
      ~note:
        "Winner among the F8 candidates. Rows marked \"differs\" pick \
         different mechanisms across the three architecture models — the \
         paper's cross-architecture dependence at benchmark granularity."
      ~headers:
        [ "benchmark"; "A best"; "A config"; "B best"; "B config";
          "C best"; "C config"; "" ]
      rows;
  ]

(* ------------------------------------------------------------------ *)
(* F10 *)

let adaptive_cfg ?(returns = Config.Return_cache { entries = 4096 }) () =
  {
    Config.default with
    mech = Config.Adaptive Config.default_adaptive;
    returns;
  }

(* the static field adaptive competes against: every mechanism at its
   best fixed configuration, all over the same return cache so the
   comparison isolates IB-site handling *)
let f10_static =
  let rc = Config.Return_cache { entries = 4096 } in
  [
    ("dispatch", { Config.baseline with Config.returns = rc });
    ("ibtc-4096", ibtc ~returns:rc ());
    ("per-branch-64", ibtc ~shared:false ~per_site:64 ~returns:rc ());
    ("sieve-4096", sieve ~returns:rc ());
  ]

let f10_cfgs = List.map snd f10_static @ [ adaptive_cfg () ]

let ib_mech_sweep () =
  let a =
    match (adaptive_cfg ()).Config.mech with
    | Config.Adaptive a -> a
    | _ -> Config.default_adaptive
  in
  (List.map fst f10_static @ [ "adaptive" ], a)

let fig_adaptive size =
  let arch_table arch =
    let rows =
      List.map
        (fun e ->
          let statics =
            List.map
              (fun (name, cfg) -> (name, (sdt ~arch ~cfg e size).Run.slowdown))
              f10_static
          in
          let a = (sdt ~arch ~cfg:(adaptive_cfg ()) e size).Run.slowdown in
          let bn, bs =
            List.fold_left
              (fun (bn, bs) (n, s) -> if s < bs then (n, s) else (bn, bs))
              ("", infinity) statics
          in
          (e.Suite.name :: List.map (fun (_, s) -> Summary.f2 s) statics)
          @ [ Summary.f2 a; bn; Summary.f2 (100.0 *. ((a -. bs) /. bs)) ])
        Suite.all
    in
    let gm cfg =
      Summary.geomean
        (List.map (fun e -> (sdt ~arch ~cfg e size).Run.slowdown) Suite.all)
    in
    let gmrow =
      ("geomean" :: List.map (fun (_, cfg) -> Summary.f2 (gm cfg)) f10_static)
      @ [ Summary.f2 (gm (adaptive_cfg ())); ""; "" ]
    in
    Table.make
      ~title:
        (Printf.sprintf
           "F10 (%s): adaptive per-site selection vs static mechanisms"
           arch.Arch.name)
      ~note:
        "Slowdown vs native; every column uses the same 4096-entry return \
         cache. \"d-best%\" is the adaptive column's distance from the \
         best static mechanism for that benchmark (negative = adaptive \
         wins outright). Adaptive carries no per-workload tuning."
      ~headers:
        (("benchmark" :: List.map fst f10_static)
        @ [ "adaptive"; "best static"; "d-best%" ])
      (rows @ [ gmrow ])
  in
  let dyn =
    let rows =
      List.map
        (fun e ->
          let s = sdt ~arch:Arch.arch_a ~cfg:(adaptive_cfg ()) e size in
          let st = s.Run.s_stats in
          let get k =
            int_of_float
              (Option.value (List.assoc_opt k s.Run.s_mech) ~default:0.0)
          in
          [
            e.Suite.name;
            string_of_int (get "adapt_sites");
            string_of_int st.Stats.adapt_promotions;
            string_of_int st.Stats.adapt_demotions;
            string_of_int st.Stats.adapt_repatches;
            Printf.sprintf "%d/%d/%d/%d" (get "adapt_tier_ic")
              (get "adapt_tier_ibtc") (get "adapt_tier_sieve")
              (get "adapt_tier_dispatch");
          ])
        Suite.all
    in
    Table.make ~title:"F10d: adaptive site dynamics (archA)"
      ~note:
        "Per-benchmark transition activity: how many IB sites the \
         adaptive mechanism tracked, how many tier transitions it took \
         (counted on miss paths only), how many emitted exit transfers \
         were re-patched, and the final tier mix \
         (IC/IBTC/sieve/dispatch)."
      ~headers:
        [ "benchmark"; "sites"; "promo"; "demo"; "repatch"; "final tiers" ]
      rows
  in
  List.map arch_table cross_arches @ [ dyn ]

(* ------------------------------------------------------------------ *)
(* Ablations *)

let a1_cfgs =
  [
    ("linked", ibtc ());
    ("unlinked", { (ibtc ()) with Config.link_direct = false });
  ]

let fig_ablation_linking size =
  let cfgs = a1_cfgs in
  let rows =
    List.map
      (fun e ->
        e.Suite.name
        :: List.map (fun (_, cfg) -> Summary.f2 (sdt ~cfg e size).Run.slowdown) cfgs)
      Suite.all
  in
  let gm =
    "geomean"
    :: List.map
         (fun (_, cfg) ->
           Summary.f2
             (Summary.geomean
                (List.map (fun e -> (sdt ~cfg e size).Run.slowdown) Suite.all)))
         cfgs
  in
  [
    Table.make ~title:"A1: direct-branch linking on/off (shared IBTC, archA)"
      ~note:
        "Without linking every block transition context-switches; indirect \
         branches are the remaining problem only because linking already \
         solved the direct ones."
      ~headers:("benchmark" :: List.map fst cfgs)
      (rows @ [ gm ]);
  ]

let a2_cfgs =
  [
    ("shift-mask", ibtc ~entries:1024 ~hash:Config.Shift_mask ());
    ("multiplicative", ibtc ~entries:1024 ~hash:Config.Multiplicative ());
  ]

let fig_ablation_hash size =
  let cfgs = a2_cfgs in
  let rows =
    List.map
      (fun e ->
        let nat = native e size in
        e.Suite.name
        :: List.concat_map
             (fun (_, cfg) ->
               let s = sdt ~cfg e size in
               let misses =
                 s.Run.s_stats.Stats.ibtc_misses_fast
                 + s.Run.s_stats.Stats.ibtc_misses_full
               in
               [
                 Summary.f2 s.Run.slowdown;
                 Summary.f2 (Summary.pct misses (app_ibs nat));
               ])
             cfgs)
      Suite.all
  in
  [
    Table.make ~title:"A2: IBTC hash function at 1024 entries (archA)"
      ~note:
        "The multiplicative hash spreads clustered code addresses better \
         (fewer conflict misses) but costs a multiply on every lookup."
      ~headers:
        [ "benchmark"; "shift slow"; "shift miss%"; "mult slow"; "mult miss%" ]
      rows;
  ]

let a3_cfgs =
  [
    ("head", sieve ~buckets:64 ~head:true ());
    ("tail", sieve ~buckets:64 ~head:false ());
  ]

let fig_ablation_sieve_order size =
  let cfgs = a3_cfgs in
  let rows =
    List.map
      (fun e ->
        e.Suite.name
        :: List.concat_map
             (fun (_, cfg) ->
               let s = sdt ~cfg e size in
               let get k =
                 Option.value (List.assoc_opt k s.Run.s_mech) ~default:0.0
               in
               [ Summary.f2 s.Run.slowdown; Summary.f2 (get "sieve_avg_chain") ])
             cfgs)
      Suite.all
  in
  [
    Table.make
      ~title:"A3: sieve insertion order at 64 buckets (deliberately crowded, archA)"
      ~note:
        "Head insertion puts recent targets first (MRU-ish); tail keeps \
         first-seen targets first. Chains are identical in length, so the \
         difference is purely which stub is hit early."
      ~headers:[ "benchmark"; "head slow"; "head chain"; "tail slow"; "tail chain" ]
      rows;
  ]

let a4_cfgs =
  [
    ("blocks", ibtc ~returns:(Config.Return_cache { entries = 4096 }) ());
    ( "traces",
      {
        (ibtc ~returns:(Config.Return_cache { entries = 4096 }) ()) with
        Config.follow_direct_jumps = true;
      } );
  ]

let fig_ablation_traces size =
  let cfgs = a4_cfgs in
  let rows =
    List.map
      (fun e ->
        e.Suite.name
        :: List.concat_map
             (fun (_, cfg) ->
               let s = sdt ~cfg e size in
               [
                 Summary.f2 s.Run.slowdown;
                 string_of_int s.Run.s_stats.Stats.blocks_translated;
                 Summary.f1 (float_of_int s.Run.s_code_bytes /. 1024.0);
               ])
             cfgs)
      Suite.all
  in
  let gm =
    "geomean"
    :: List.concat_map
         (fun (_, cfg) ->
           [
             Summary.f2
               (Summary.geomean
                  (List.map (fun e -> (sdt ~cfg e size).Run.slowdown) Suite.all));
             "";
             "";
           ])
         cfgs
  in
  [
    Table.make
      ~title:"A4: superblock formation — translate through direct jumps (archA)"
      ~note:
        "Following unconditional jumps elides them and merges fragments:          fewer blocks and links, straighter fetch — at the price of          duplicated code."
      ~headers:
        [ "benchmark"; "blk slow"; "blk frags"; "blk KB";
          "trc slow"; "trc frags"; "trc KB" ]
      (rows @ [ gm ]);
  ]

let a5_cfgs =
  [
    ("64/1way", ibtc ~entries:64 ~ways:1 ());
    ("64/2way", ibtc ~entries:64 ~ways:2 ());
    ("256/1way", ibtc ~entries:256 ~ways:1 ());
    ("256/2way", ibtc ~entries:256 ~ways:2 ());
  ]

let fig_ablation_assoc size =
  let cfgs = a5_cfgs in
  let rows =
    List.map
      (fun e ->
        let nat = native e size in
        e.Suite.name
        :: List.concat_map
             (fun (_, cfg) ->
               let s = sdt ~cfg e size in
               let misses =
                 s.Run.s_stats.Stats.ibtc_misses_fast
                 + s.Run.s_stats.Stats.ibtc_misses_full
               in
               [
                 Summary.f2 s.Run.slowdown;
                 Summary.f1 (Summary.pct misses (app_ibs nat));
               ])
             cfgs)
      Suite.all
  in
  [
    Table.make
      ~title:"A5: IBTC associativity on small tables (archA, slowdown and miss%)"
      ~note:
        "A second way turns conflict misses into one extra load+compare          on the probe path; it pays exactly where direct-mapped tables          thrash."
      ~headers:
        [ "benchmark"; "64/1w"; "miss%"; "64/2w"; "miss%";
          "256/1w"; "miss%"; "256/2w"; "miss%" ]
      rows;
  ]

let cross_arch_grid =
  grid_of ~arches:cross_arches (List.map snd cross_arch_cfgs)

(* ------------------------------------------------------------------ *)
(* F11: multi-tenant serving *)

(* the serving deployment configuration: shared IBTC + return cache.
   Fast returns are excluded by construction — a bounded shared store
   cannot invalidate fragments whose addresses escaped into
   application state ({!Serve.spec} rejects the combination). *)
let f11_cfg = ibtc ~returns:(Config.Return_cache { entries = 4096 }) ()

let f11_micro seed =
  Serve.Micro
    {
      Synthetic.ib_sites = 4;
      targets = 8;
      fns = 2;
      recursion_depth = 1;
      iters = 600;
      seed;
    }

let f11_wl name size =
  let e = Option.get (Suite.find name) in
  Serve.Workload
    {
      wl = name;
      size = (match size with `Test -> e.Suite.test_size | `Ref -> e.Suite.ref_size);
    }

let f11_quantum = 20_000
let f11_servers = 3

(* the standing mix: five suite tenants (gzip twice — an identical
   binary pair) plus three IB microbenchmark tenants (m1 twice);
   cross-tenant dedup has something to find, and the store holds a
   multi-workload footprint *)
let f11_mix size =
  [
    Serve.tenant "gzip-a" (f11_wl "gzip" size);
    Serve.tenant "gzip-b" (f11_wl "gzip" size);
    Serve.tenant "gcc" (f11_wl "gcc" size);
    Serve.tenant "perlbmk" (f11_wl "perlbmk" size);
    Serve.tenant "vortex" (f11_wl "vortex" size);
    Serve.tenant "m1-a" (f11_micro 1);
    Serve.tenant "m1-b" (f11_micro 1);
    Serve.tenant "m2" (f11_micro 2);
  ]

(* bounds calibrated against the measured unique footprint of the mix
   (~9.2 KB at test size, ~9.5 KB at ref): tight ≈ 40% forces steady
   churn, loose ≈ 75% forces occasional eviction *)
let f11_bounds size =
  match size with `Test -> (3700, 6900) | `Ref -> (3800, 7100)

let f11_grid_spec ?policy ?bound ?(dedup = true) size =
  Serve.spec ~cfg:f11_cfg ~quantum:f11_quantum ~servers:f11_servers ?policy
    ?bound ~dedup (f11_mix size)

let f11_policies =
  [ Store.Flush_all; Store.Fifo; Store.Generational ]

let f11_grid_specs size =
  let tight, loose = f11_bounds size in
  (f11_grid_spec size :: f11_grid_spec ~dedup:false size
  :: List.concat_map
       (fun p ->
         [
           f11_grid_spec ~policy:p ~bound:tight size;
           f11_grid_spec ~policy:p ~bound:loose size;
         ])
       f11_policies)

(* the churn schedule: short jobs, repeated — translation cost stays a
   large fraction of every job, so eviction policy shows up in
   throughput and tail latency rather than vanishing into execution
   time. Job sizes are fixed; `Ref turns the arrival stream over more
   times. *)
let f11_churn_mix size =
  let jobs = match size with `Test -> 2 | `Ref -> 6 in
  [
    Serve.tenant ~jobs "gzip-a" (Serve.Workload { wl = "gzip"; size = 800 });
    Serve.tenant ~jobs "gzip-b" (Serve.Workload { wl = "gzip"; size = 800 });
    Serve.tenant ~jobs "perlbmk" (Serve.Workload { wl = "perlbmk"; size = 2400 });
    Serve.tenant ~jobs "parser" (Serve.Workload { wl = "parser"; size = 6000 });
    Serve.tenant ~jobs "m1-a" (f11_micro 1);
    Serve.tenant ~jobs "m1-b" (f11_micro 1);
    Serve.tenant ~jobs "m2" (f11_micro 2);
    Serve.tenant ~jobs "m3" (f11_micro 3);
  ]

(* ~40% of the churn mix's 5.1 KB unique footprint *)
let f11_churn_bound = 2048

let f11_churn_spec ~policy ~schedule size =
  Serve.spec ~cfg:f11_cfg ~quantum:10_000 ~servers:f11_servers ~policy
    ~bound:f11_churn_bound ~schedule (f11_churn_mix size)

let f11_schedules =
  [ ("closed", Serve.Closed); ("open", Serve.Open_loop { period = 15_000 }) ]

let f11_churn_specs size =
  List.concat_map
    (fun p ->
      List.map
        (fun (_, sched) -> f11_churn_spec ~policy:p ~schedule:sched size)
        f11_schedules)
    f11_policies

(* tenant scaling: N copies of the same binary, dedup on/off *)
let f11_scale_counts = [ 1; 2; 4; 6; 8 ]

let f11_scale_spec ~n ~dedup size =
  Serve.spec ~cfg:f11_cfg ~quantum:f11_quantum ~servers:f11_servers ~dedup
    (List.init n (fun i ->
         Serve.tenant (Printf.sprintf "t%d" i) (f11_wl "gzip" size)))

let f11_scale_specs size =
  List.concat_map
    (fun n ->
      [ f11_scale_spec ~n ~dedup:true size; f11_scale_spec ~n ~dedup:false size ])
    f11_scale_counts

(* IB mechanism × cache pressure, adaptive included; all over the same
   return cache so the comparison isolates IB-site handling *)
let f11_mechs =
  let rc = Config.Return_cache { entries = 4096 } in
  [
    ("dispatch", { Config.baseline with Config.returns = rc });
    ("ibtc", f11_cfg);
    ("ibtc+pred2", ibtc ~returns:rc ~pred:2 ());
    ("sieve", sieve ~returns:rc ());
    ("adaptive", adaptive_cfg ());
  ]

let f11_mech_spec ~cfg ?policy ?bound size =
  Serve.spec ~cfg ~quantum:f11_quantum ~servers:f11_servers ?policy ?bound
    (f11_mix size)

let f11_mech_specs size =
  let tight, _ = f11_bounds size in
  List.concat_map
    (fun (_, cfg) ->
      [
        f11_mech_spec ~cfg size;
        f11_mech_spec ~cfg ~policy:Store.Fifo ~bound:tight size;
      ])
    f11_mechs

let f11_serves size =
  f11_grid_specs size @ f11_churn_specs size @ f11_scale_specs size
  @ f11_mech_specs size

let kb b = Summary.f1 (float_of_int b /. 1024.0)
let kcyc c = Summary.f1 (c /. 1000.0)

let fig_serving size =
  let report spec = Run.serve spec in
  let tight, loose = f11_bounds size in
  let policy_rows =
    let row label spec =
      let r = report spec in
      [
        label;
        Summary.f1 r.Serve.rp_throughput;
        Summary.f1 r.Serve.rp_agg_mips;
        kcyc r.Serve.rp_p50;
        kcyc r.Serve.rp_p99;
        string_of_int r.Serve.rp_dedup_hits;
        string_of_int r.Serve.rp_evictions;
        string_of_int r.Serve.rp_flushes;
        kb r.Serve.rp_store_peak;
        kb r.Serve.rp_store_final;
      ]
    in
    (row "unbounded" (f11_grid_spec size)
    :: row "unbounded/no-dedup" (f11_grid_spec ~dedup:false size)
    :: List.concat_map
         (fun p ->
           let pn = Store.policy_name p in
           [
             row
               (Printf.sprintf "%s/%dK tight" pn (tight / 1024))
               (f11_grid_spec ~policy:p ~bound:tight size);
             row
               (Printf.sprintf "%s/%dK loose" pn (loose / 1024))
               (f11_grid_spec ~policy:p ~bound:loose size);
           ])
         f11_policies)
  in
  let churn_rows =
    List.concat_map
      (fun p ->
        List.map
          (fun (sn, sched) ->
            let r = report (f11_churn_spec ~policy:p ~schedule:sched size) in
            [
              Store.policy_name p ^ "/" ^ sn;
              Summary.f1 r.Serve.rp_throughput;
              kcyc r.Serve.rp_p50;
              kcyc r.Serve.rp_p99;
              string_of_int r.Serve.rp_dedup_hits;
              string_of_int r.Serve.rp_evictions;
              string_of_int r.Serve.rp_flush_marks;
              string_of_int r.Serve.rp_flushes;
            ])
          f11_schedules)
      f11_policies
  in
  let scale_rows =
    List.map
      (fun n ->
        let d = report (f11_scale_spec ~n ~dedup:true size) in
        let i = report (f11_scale_spec ~n ~dedup:false size) in
        [
          string_of_int n;
          kb d.Serve.rp_store_final;
          kb i.Serve.rp_store_final;
          string_of_int d.Serve.rp_dedup_hits;
          Summary.f1 d.Serve.rp_throughput;
          Summary.f1 i.Serve.rp_throughput;
          Summary.f1 d.Serve.rp_agg_mips;
          Summary.f1 i.Serve.rp_agg_mips;
        ])
      f11_scale_counts
  in
  let mech_rows =
    List.map
      (fun (mn, cfg) ->
        let u = report (f11_mech_spec ~cfg size) in
        let b =
          report (f11_mech_spec ~cfg ~policy:Store.Fifo ~bound:tight size)
        in
        [
          mn;
          Summary.f1 u.Serve.rp_throughput;
          kcyc u.Serve.rp_p99;
          Summary.f1 b.Serve.rp_throughput;
          kcyc b.Serve.rp_p99;
          string_of_int b.Serve.rp_dedup_hits;
          string_of_int b.Serve.rp_evictions;
        ])
      f11_mechs
  in
  [
    Table.make
      ~title:"F11a: shared-store eviction policy × cache bound (closed loop)"
      ~note:
        "Eight-tenant mix (five suite workloads — gzip twice — plus three \
         IB micros, m1 twice) over a shared IBTC + return cache. \
         Throughput is jobs per giga-cycle of virtual service time; \
         latencies are job p50/p99 in kilocycles. Per-tenant guest \
         checksums are bit-identical across every row (and to isolated \
         runs) — the store only re-prices translation, never execution."
      ~headers:
        [ "store"; "jobs/Gcyc"; "MIPS"; "p50k"; "p99k"; "hits"; "evict";
          "flush"; "peakKB"; "KB" ]
      policy_rows;
    Table.make ~title:"F11b: eviction policy under churn (tight bound)"
      ~note:
        "Short repeated jobs, closed loop vs an open-loop arrival stream \
         (one arrival per 15k cycles, round-robin). Flush-all turns every \
         overflow into a service-wide invalidation storm; FIFO and \
         generational eviction beat it on both jobs/Gcyc and p99 — \
         retranslation after an eviction is also where cross-tenant dedup \
         hits pay off (copy cost, not translate cost)."
      ~headers:
        [ "policy/sched"; "jobs/Gcyc"; "p50k"; "p99k"; "hits"; "evict";
          "marks"; "flush" ]
      churn_rows;
    Table.make ~title:"F11c: tenant scaling — cross-tenant dedup"
      ~note:
        "N tenants running the identical gzip binary, dedup on vs off \
         (unbounded store). Dedup keeps the unique footprint flat while \
         the no-dedup store grows linearly; throughput gains come from \
         translation served at copy cost."
      ~headers:
        [ "tenants"; "KB dedup"; "KB isolated"; "hits"; "jobs/G dedup";
          "jobs/G isolated"; "MIPS dedup"; "MIPS isolated" ]
      scale_rows;
    Table.make ~title:"F11d: IB mechanism × cache pressure (fifo, tight bound)"
      ~note:
        "The standing mix under each IB mechanism (same 4096-entry return \
         cache; fast returns are rejected for bounded stores by \
         construction). Mechanism choice dominates throughput; the bounded \
         store costs every mechanism a similar churn tax."
      ~headers:
        [ "mechanism"; "jobs/G unbounded"; "p99k"; "jobs/G tight"; "p99k";
          "hits"; "evict" ]
      mech_rows;
  ]

(* ------------------------------------------------------------------ *)
(* F12: CFI protection overhead *)

(* Every point of the IB design space the policy stage composes with,
   all over as-ib returns so the ret-integrity column compares like
   with like (a shadow stack is compatible with each). *)
let f12_mechs =
  [
    ("dispatch", Config.baseline);
    ("ibtc-4096", ibtc ());
    ("sieve-4096", sieve ());
    ("adaptive", adaptive_cfg ~returns:Config.As_ib ());
  ]

let f12_policies =
  [
    ("none", Config.Cfi_none);
    ("pad", Config.Cfi_landing_pad);
    ("comp:8", Config.Cfi_compartment { count = 8 });
    ("ret", Config.Ret_integrity);
  ]

let f12_comp_counts = [ 2; 8; 32 ]

(* three IB-heavy SPEC stand-ins plus the plugin-host compartment
   workload (registered in Suite.extra, so it appears only here) *)
let f12_wls = List.filter_map Suite.find [ "perlbmk"; "eon"; "crafty"; "sfi" ]
let f12_sfi = List.filter (fun e -> e.Suite.name = "sfi") f12_wls
let with_cfi cfg cfi = { cfg with Config.cfi }

let f12_grid =
  List.concat_map
    (fun e ->
      List.concat_map
        (fun arch ->
          { cell_entry = e; cell_arch = arch; cell_cfg = None }
          :: List.concat_map
               (fun (_, cfg) ->
                 List.map
                   (fun (_, pol) ->
                     {
                       cell_entry = e;
                       cell_arch = arch;
                       cell_cfg = Some (with_cfi cfg pol);
                     })
                   f12_policies)
               f12_mechs)
        cross_arches)
    f12_wls
  @ (* the compartment-count sweep runs sfi on archA only *)
  List.concat_map
    (fun e ->
      List.concat_map
        (fun n ->
          List.map
            (fun (_, cfg) ->
              {
                cell_entry = e;
                cell_arch = Arch.arch_a;
                cell_cfg =
                  Some (with_cfi cfg (Config.Cfi_compartment { count = n }));
              })
            f12_mechs)
        f12_comp_counts)
    f12_sfi

let fig_cfi size =
  let overhead base prot = 100.0 *. ((prot -. base) /. base) in
  let arch_table arch =
    let rows =
      List.concat_map
        (fun (mn, cfg) ->
          let wl_rows =
            List.map
              (fun e ->
                let s pol =
                  (sdt ~arch ~cfg:(with_cfi cfg pol) e size).Run.slowdown
                in
                let base = s Config.Cfi_none in
                (mn :: e.Suite.name
                :: List.map (fun (_, pol) -> Summary.f2 (s pol)) f12_policies)
                @ [ Summary.f1 (overhead base (s Config.Cfi_landing_pad)) ])
              f12_wls
          in
          let gm pol =
            Summary.geomean
              (List.map
                 (fun e ->
                   (sdt ~arch ~cfg:(with_cfi cfg pol) e size).Run.slowdown)
                 f12_wls)
          in
          wl_rows
          @ [
              (mn :: "geomean"
              :: List.map (fun (_, pol) -> Summary.f2 (gm pol)) f12_policies)
              @ [
                  Summary.f1
                    (overhead (gm Config.Cfi_none) (gm Config.Cfi_landing_pad));
                ];
            ])
        f12_mechs
    in
    Table.make
      ~title:
        (Printf.sprintf "F12 (%s): CFI protection overhead per mechanism"
           arch.Arch.name)
      ~note:
        "Slowdown vs native under each policy; \"pad ovh%\" is the \
         landing-pad policy's cost relative to the same mechanism \
         unprotected. Hit-caching mechanisms buy protection almost for \
         free (validation lives on their miss paths); full dispatch pays \
         a membership test on every transfer."
      ~headers:
        (("mechanism" :: "benchmark" :: List.map fst f12_policies)
        @ [ "pad ovh%" ])
      rows
  in
  let elision =
    let dispatch_cfg = with_cfi (snd (List.hd f12_mechs)) Config.Cfi_landing_pad in
    let data =
      List.map
        (fun e ->
          let ibs = app_ibs (native e size) in
          let d = (sdt ~cfg:dispatch_cfg e size).Run.s_stats.Stats.cfi_checks in
          let cs =
            List.map
              (fun (_, cfg) ->
                (sdt ~cfg:(with_cfi cfg Config.Cfi_landing_pad) e size)
                  .Run.s_stats.Stats.cfi_checks)
              (List.tl f12_mechs)
          in
          (e.Suite.name, ibs, d, cs))
        f12_wls
    in
    let cell d c =
      [ string_of_int c; Summary.f1 (float_of_int d /. float_of_int (max 1 c)) ]
    in
    let row (name, ibs, d, cs) =
      [ name; string_of_int ibs; string_of_int d ] @ List.concat_map (cell d) cs
    in
    let total =
      let sum f = List.fold_left (fun a r -> a + f r) 0 data in
      let ibs = sum (fun (_, i, _, _) -> i) in
      let d = sum (fun (_, _, d, _) -> d) in
      let cs =
        List.mapi
          (fun i _ -> sum (fun (_, _, _, cs) -> List.nth cs i))
          (List.tl f12_mechs)
      in
      ("total", ibs, d, cs)
    in
    let rows = List.map row (data @ [ total ]) in
    Table.make ~title:"F12b: hit-path check elision under landing-pad CFI (archA)"
      ~note:
        "Membership checks actually run per workload. Dispatch checks \
         every dynamic IB transfer; sieve/IBTC/adaptive validate only on \
         miss paths, so their check counts collapse to the working-set \
         size. \"x\" is dispatch checks divided by that mechanism's \
         checks — the elision factor bought by caching."
      ~headers:
        [
          "benchmark"; "dyn IBs"; "dispatch"; "ibtc"; "x"; "sieve"; "x";
          "adaptive"; "x";
        ]
      rows
  in
  let compartments =
    let rows =
      List.concat_map
        (fun e ->
          List.concat_map
            (fun (mn, cfg) ->
              let base = (sdt ~cfg:(with_cfi cfg Config.Cfi_none) e size).Run.slowdown in
              List.map
                (fun count ->
                  let s =
                    sdt
                      ~cfg:(with_cfi cfg (Config.Cfi_compartment { count }))
                      e size
                  in
                  let st = s.Run.s_stats in
                  [
                    mn;
                    string_of_int count;
                    Summary.f2 s.Run.slowdown;
                    Summary.f1 (overhead base s.Run.slowdown);
                    string_of_int st.Stats.cfi_checks;
                    string_of_int st.Stats.cfi_xcalls;
                    string_of_int st.Stats.cfi_violations;
                  ])
                f12_comp_counts)
            f12_mechs)
        f12_sfi
    in
    Table.make
      ~title:"F12c: compartment count sweep — sfi plugin host (archA)"
      ~note:
        "The SFI workload's capability calls cross compartment boundaries; \
         finer partitions mediate more transfers (xcalls) and cost more. \
         Violations stay zero: the capability table's address-taken plugin \
         entries are pre-seeded as valid entry points, so every mediated \
         call passes the audit."
      ~headers:
        [
          "mechanism"; "comps"; "slowdown"; "ovh%"; "checks"; "xcalls";
          "violations";
        ]
      rows
  in
  List.map arch_table cross_arches @ [ elision; compartments ]

let experiments =
  [
    {
      id = "T1";
      title = "IB characteristics";
      grid = grid_of [];
      serves = no_serves;
      run = table_ib_characteristics;
    };
    {
      id = "F1";
      title = "baseline overhead";
      grid = grid_of f1_cfgs;
      serves = no_serves;
      run = fig_baseline_overhead;
    };
    {
      id = "F2";
      title = "IBTC size sweep";
      grid = grid_of f2_cfgs;
      serves = no_serves;
      run = fig_ibtc_size_sweep;
    };
    {
      id = "F3";
      title = "IBTC sharing";
      grid = grid_of (List.map snd f3_cfgs);
      serves = no_serves;
      run = fig_ibtc_sharing;
    };
    {
      id = "F4";
      title = "IBTC miss policy";
      grid = grid_of (List.map snd f4_cfgs);
      serves = no_serves;
      run = fig_ibtc_miss_policy;
    };
    {
      id = "F5";
      title = "sieve sweep";
      grid = grid_of f5_cfgs;
      serves = no_serves;
      run = fig_sieve_sweep;
    };
    {
      id = "F6";
      title = "return handling";
      grid = grid_of f6_cfgs;
      serves = no_serves;
      run = fig_return_handling;
    };
    {
      id = "F7";
      title = "target prediction";
      grid = grid_of f7_cfgs;
      serves = no_serves;
      run = fig_target_prediction;
    };
    {
      id = "F8";
      title = "cross-architecture";
      grid = cross_arch_grid;
      serves = no_serves;
      run = fig_cross_arch;
    };
    {
      id = "F9";
      title = "best configuration";
      grid = cross_arch_grid;
      serves = no_serves;
      run = fig_best_config;
    };
    {
      id = "F10";
      title = "adaptive IB selection";
      grid = grid_of ~arches:cross_arches f10_cfgs;
      serves = no_serves;
      run = fig_adaptive;
    };
    {
      id = "F11";
      title = "multi-tenant serving";
      grid = grid_of [];
      serves = f11_serves;
      run = fig_serving;
    };
    {
      id = "F12";
      title = "CFI protection overhead";
      grid = f12_grid;
      serves = no_serves;
      run = fig_cfi;
    };
    {
      id = "A1";
      title = "linking ablation";
      grid = grid_of (List.map snd a1_cfgs);
      serves = no_serves;
      run = fig_ablation_linking;
    };
    {
      id = "A2";
      title = "hash ablation";
      grid = grid_of (List.map snd a2_cfgs);
      serves = no_serves;
      run = fig_ablation_hash;
    };
    {
      id = "A3";
      title = "sieve order ablation";
      grid = grid_of (List.map snd a3_cfgs);
      serves = no_serves;
      run = fig_ablation_sieve_order;
    };
    {
      id = "A4";
      title = "superblock traces";
      grid = grid_of (List.map snd a4_cfgs);
      serves = no_serves;
      run = fig_ablation_traces;
    };
    {
      id = "A5";
      title = "IBTC associativity";
      grid = grid_of (List.map snd a5_cfgs);
      serves = no_serves;
      run = fig_ablation_assoc;
    };
  ]

let find id =
  let id = String.uppercase_ascii id in
  List.find_opt (fun e -> e.id = id) experiments
