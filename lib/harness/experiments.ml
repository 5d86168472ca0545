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

let experiment ?(serves = no_serves) id title grid run =
  { id; title; grid; serves; run }

let key e (size : size) =
  e.Suite.name ^ match size with `Test -> ":test" | `Ref -> ":ref"

let build e (size : size) () = Suite.program e size

let native ?(arch = Arch.arch_a) e size =
  Run.native ~arch ~key:(key e size) (build e size)

let sdt ?(arch = Arch.arch_a) ~cfg e size =
  Run.sdt ~arch ~cfg ~key:(key e size) (build e size)

(* Every experiment measures (workloads × its configs × its arches),
   plus the native run each SDT cell normalises against. *)
let grid_of ?(wls = Suite.all) ?(arches = [ Arch.arch_a ]) cfgs =
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
    wls

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

let rc4096 = Config.Return_cache { entries = 4096 }

let adaptive_cfg ?(returns = rc4096) () =
  { Config.default with mech = Config.Adaptive Config.default_adaptive; returns }

(* cell formatting *)

let kb b = Summary.f1 (float_of_int b /. 1024.0)
let mech_stat (s : Run.sdt) k = Option.value (List.assoc_opt k s.Run.s_mech) ~default:0.0
let mech_int s k = string_of_int (int_of_float (mech_stat s k))

let ibtc_miss_pct fmt n (s : Run.sdt) =
  let st = s.Run.s_stats in
  fmt (Summary.pct (st.Stats.ibtc_misses_fast + st.Stats.ibtc_misses_full) (app_ibs n))

(* ------------------------------------------------------------------ *)
(* Matrices: experiments declared as data *)

(* One table over the suite on archA: a row per workload and, per
   configuration column, the cells [cell] renders from the workload's
   native and SDT runs under the headers [heads label]; the optional
   geomean row puts each column's geomean slowdown under its first
   header. *)
type matrix = {
  m_title : string;
  m_note : string;
  m_columns : (string * Config.t) list;
  m_heads : string -> string list;
  m_cell : Run.native -> Run.sdt -> string list;
  m_geomean : bool;
}

let slowdown _ (s : Run.sdt) = [ Summary.f2 s.Run.slowdown ]

(* headers "<label> <name>" for a configuration rendered as several cells *)
let sub names label = List.map (fun n -> label ^ " " ^ n) names

let matrix ~title ?(note = "") ?(heads = fun label -> [ label ])
    ?(cell = slowdown) ?(geomean = true) columns =
  {
    m_title = title;
    m_note = note;
    m_columns = columns;
    m_heads = heads;
    m_cell = cell;
    m_geomean = geomean;
  }

let render_matrix size m =
  let runs =
    List.map
      (fun e ->
        (e, native e size, List.map (fun (_, cfg) -> sdt ~cfg e size) m.m_columns))
      Suite.all
  in
  let rows =
    List.map
      (fun (e, n, ss) -> e.Suite.name :: List.concat_map (m.m_cell n) ss)
      runs
  in
  let geomean =
    "geomean"
    :: List.concat
         (List.mapi
            (fun i (label, _) ->
              Summary.f2
                (Summary.geomean
                   (List.map (fun (_, _, ss) -> (List.nth ss i).Run.slowdown) runs))
              :: List.map (fun _ -> "") (List.tl (m.m_heads label)))
            m.m_columns)
  in
  Table.make ~title:m.m_title ~note:m.m_note
    ~headers:("benchmark" :: List.concat_map (fun (l, _) -> m.m_heads l) m.m_columns)
    (if m.m_geomean then rows @ [ geomean ] else rows)

(* one experiment whose grid is exactly the configurations its tables
   name, each once, in first-named order *)
let matrices id title ms =
  let cfgs =
    List.fold_left
      (fun acc (_, c) -> if List.mem c acc then acc else acc @ [ c ])
      []
      (List.concat_map (fun m -> m.m_columns) ms)
  in
  experiment id title (grid_of cfgs) (fun size -> List.map (render_matrix size) ms)

let f1 =
  matrices "F1" "baseline overhead"
    [
      matrix ~title:"F1: baseline SDT overhead (translator dispatch for every IB)"
        ~note:
          "Slowdown vs native on archA; runtime% = cycles spent inside the \
           translator runtime; switches/1k = full context switches per 1000 \
           application instructions."
        ~heads:(fun _ -> [ "slowdown"; "runtime%"; "switch/1k"; "code KB" ])
        ~cell:(fun n s ->
          [
            Summary.f2 s.Run.slowdown;
            Summary.f1 (Summary.pct s.Run.s_runtime_cycles s.Run.s_cycles);
            Summary.f2
              (Summary.per_mille s.Run.s_stats.Stats.dispatch_entries
                 n.Run.n_instrs);
            kb s.Run.s_code_bytes;
          ])
        [ ("baseline", Config.baseline) ];
    ]

let f2 =
  let columns =
    List.map
      (fun entries -> (string_of_int entries, ibtc ~entries ()))
      [ 16; 64; 256; 1024; 4096; 65536 ]
  in
  matrices "F2" "IBTC size sweep"
    [
      matrix ~title:"F2a: shared IBTC size sweep — slowdown vs native (archA)"
        ~note:
          "Returns handled through the IBTC (as-ib). Slowdown falls until \
           the table covers the IB target working set, then flattens."
        columns;
      matrix ~title:"F2b: shared IBTC size sweep — miss rate (% of dynamic IBs)"
        ~cell:(fun n s -> [ ibtc_miss_pct Summary.f2 n s ])
        ~geomean:false columns;
    ]

let f3 =
  matrices "F3" "IBTC sharing"
    [
      matrix ~title:"F3: shared vs per-branch IBTC — slowdown (archA)"
        ~note:
          "Per-branch tables avoid cross-branch interference but replicate \
           code and cold-miss every site; monomorphic sites love them, \
           megamorphic interpreters prefer one big shared table."
        [
          ("shared-4096", ibtc ~entries:4096 ());
          ("per-branch-16", ibtc ~shared:false ~per_site:16 ());
          ("per-branch-64", ibtc ~shared:false ~per_site:64 ());
          ("per-branch-256", ibtc ~shared:false ~per_site:256 ());
        ];
    ]

let f4 =
  matrices "F4" "IBTC miss policy"
    [
      matrix
        ~title:"F4: IBTC miss handling — full context switch vs fast reload (archA)"
        ~note:
          "The gap between full and fast widens as the table shrinks (more \
           misses); with a big table, misses are rare and the policies \
           converge."
        [
          ("64/full", ibtc ~entries:64 ~miss:Config.Full_switch ());
          ("64/fast", ibtc ~entries:64 ~miss:Config.Fast_reload ());
          ("1024/full", ibtc ~entries:1024 ~miss:Config.Full_switch ());
          ("1024/fast", ibtc ~entries:1024 ~miss:Config.Fast_reload ());
        ];
    ]

let f5 =
  let columns =
    List.map
      (fun buckets -> (string_of_int buckets, sieve ~buckets ()))
      [ 16; 64; 256; 1024; 4096; 65536 ]
  in
  matrices "F5" "sieve sweep"
    [
      matrix ~title:"F5a: sieve bucket-count sweep — slowdown vs native (archA)"
        ~note:"Returns handled through the sieve (as-ib)." columns;
      matrix ~title:"F5b: sieve chain shape at 64 buckets (deliberately crowded)"
        ~heads:(fun _ -> [ "stubs"; "avg chain"; "max chain" ])
        ~cell:(fun _ s ->
          [
            mech_int s "sieve_stubs";
            Summary.f2 (mech_stat s "sieve_avg_chain");
            mech_int s "sieve_max_chain";
          ])
        ~geomean:false
        (List.filter (fun (label, _) -> label = "64") columns);
    ]

let f6 =
  matrices "F6" "return handling"
    [
      matrix ~title:"F6: return handling over a shared 4096-entry IBTC (archA)"
        ~note:
          "Returns dominate dynamic IBs, so return-specific mechanisms \
           recover most of the remaining overhead; non-transparent fast \
           returns are the floor."
        (List.map
           (fun (label, returns) -> (label, ibtc ~returns ()))
           [
             ("as-ib", Config.As_ib);
             ("retcache-4096", rc4096);
             ("shadow-1024", Config.Shadow_stack { depth = 1024 });
             ("fast", Config.Fast_return);
           ]);
    ]

let f7 =
  matrices "F7" "target prediction"
    [
      matrix
        ~title:"F7: inline target prediction depth (over IBTC + return cache, archA)"
        ~note:
          "Depth helps sites with 1-2 hot targets (virtual calls) and adds \
           pure overhead to megamorphic interpreter dispatch."
        (List.map
           (fun d -> ("depth " ^ string_of_int d, ibtc ~returns:rc4096 ~pred:d ()))
           [ 0; 1; 2; 4 ]);
    ]

let a1 =
  matrices "A1" "linking ablation"
    [
      matrix ~title:"A1: direct-branch linking on/off (shared IBTC, archA)"
        ~note:
          "Without linking every block transition context-switches; indirect \
           branches are the remaining problem only because linking already \
           solved the direct ones."
        [
          ("linked", ibtc ());
          ("unlinked", { (ibtc ()) with Config.link_direct = false });
        ];
    ]

let a2 =
  matrices "A2" "hash ablation"
    [
      matrix ~title:"A2: IBTC hash function at 1024 entries (archA)"
        ~note:
          "The multiplicative hash spreads clustered code addresses better \
           (fewer conflict misses) but costs a multiply on every lookup."
        ~heads:(sub [ "slow"; "miss%" ])
        ~cell:(fun n s -> slowdown n s @ [ ibtc_miss_pct Summary.f2 n s ])
        ~geomean:false
        [
          ("shift", ibtc ~entries:1024 ~hash:Config.Shift_mask ());
          ("mult", ibtc ~entries:1024 ~hash:Config.Multiplicative ());
        ];
    ]

let a3 =
  matrices "A3" "sieve order ablation"
    [
      matrix
        ~title:"A3: sieve insertion order at 64 buckets (deliberately crowded, archA)"
        ~note:
          "Head insertion puts recent targets first (MRU-ish); tail keeps \
           first-seen targets first. Chains are identical in length, so the \
           difference is purely which stub is hit early."
        ~heads:(sub [ "slow"; "chain" ])
        ~cell:(fun n s ->
          slowdown n s @ [ Summary.f2 (mech_stat s "sieve_avg_chain") ])
        ~geomean:false
        [
          ("head", sieve ~buckets:64 ~head:true ());
          ("tail", sieve ~buckets:64 ~head:false ());
        ];
    ]

let a4 =
  let blocks = ibtc ~returns:rc4096 () in
  matrices "A4" "superblock traces"
    [
      matrix
        ~title:"A4: superblock formation — translate through direct jumps (archA)"
        ~note:
          "Following unconditional jumps elides them and merges fragments:          fewer blocks and links, straighter fetch — at the price of          duplicated code."
        ~heads:(sub [ "slow"; "frags"; "KB" ])
        ~cell:(fun n s ->
          slowdown n s
          @ [
              string_of_int s.Run.s_stats.Stats.blocks_translated;
              kb s.Run.s_code_bytes;
            ])
        [
          ("blk", blocks);
          ("trc", { blocks with Config.follow_direct_jumps = true });
        ];
    ]

let a5 =
  matrices "A5" "IBTC associativity"
    [
      matrix
        ~title:"A5: IBTC associativity on small tables (archA, slowdown and miss%)"
        ~note:
          "A second way turns conflict misses into one extra load+compare          on the probe path; it pays exactly where direct-mapped tables          thrash."
        ~heads:(fun label -> [ label; "miss%" ])
        ~cell:(fun n s -> slowdown n s @ [ ibtc_miss_pct Summary.f1 n s ])
        ~geomean:false
        (List.concat_map
           (fun entries ->
             List.map
               (fun ways ->
                 (Printf.sprintf "%d/%dw" entries ways, ibtc ~entries ~ways ()))
               [ 1; 2 ])
           [ 64; 256 ]);
    ]

(* ------------------------------------------------------------------ *)
(* Hand-written renderers: each names its configurations once, in the
   list its grid is derived from *)

(* T1: native runs only *)

let t1 =
  let run size =
    let natives = List.map (fun e -> (e, native e size)) Suite.all in
    let per_1k n =
      List.map
        (fun c -> Summary.per_mille c n.Run.n_instrs)
        [ n.Run.n_ijumps; n.Run.n_icalls; n.Run.n_returns; app_ibs n ]
    in
    let rows =
      List.map
        (fun (e, n) ->
          e.Suite.name :: Summary.millions n.Run.n_instrs
          :: List.map Summary.f2 (per_1k n))
        natives
    in
    let means =
      "mean" :: ""
      :: List.init 4 (fun i ->
             Summary.f2
               (Summary.mean
                  (List.map (fun (_, n) -> List.nth (per_1k n) i) natives)))
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
  in
  experiment "T1" "IB characteristics" (grid_of []) run

(* F8 and F9: the same candidates on every architecture *)

let cross_arch_cfgs =
  [
    ("dispatch", Config.baseline);
    ("ibtc-full+retcache", ibtc ~miss:Config.Full_switch ~returns:rc4096 ());
    ("ibtc+retcache", ibtc ~returns:rc4096 ());
    ("ibtc+pred2+retcache", ibtc ~returns:rc4096 ~pred:2 ());
    ("sieve+retcache", sieve ~returns:rc4096 ());
    ("ibtc+fastret", ibtc ~returns:Config.Fast_return ());
    ("ibtc+pred2+fastret", ibtc ~returns:Config.Fast_return ~pred:2 ());
    ("sieve+fastret", sieve ~returns:Config.Fast_return ());
  ]

let cross_arches = [ Arch.arch_a; Arch.arch_b; Arch.arch_c ]

(* the (label, slowdown) with the lowest slowdown, the first on a tie *)
let fastest =
  List.fold_left
    (fun (bn, bs) (n, s) -> if s < bs then (n, s) else (bn, bs))
    ("", infinity)

let cross_arch_grid = grid_of ~arches:cross_arches (List.map snd cross_arch_cfgs)

let f8 =
  let run size =
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
              cross_arches ))
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
  in
  experiment "F8" "cross-architecture" cross_arch_grid run

let f9 =
  let run size =
    let rows =
      List.map
        (fun e ->
          let bests =
            List.map
              (fun arch ->
                fastest
                  (List.map
                     (fun (name, cfg) -> (name, (sdt ~arch ~cfg e size).Run.slowdown))
                     cross_arch_cfgs))
              cross_arches
          in
          let first = fst (List.hd bests) in
          (e.Suite.name
          :: List.concat_map (fun (n, s) -> [ Summary.f2 s; n ]) bests)
          @ [
              (if List.exists (fun (n, _) -> n <> first) bests then "<- differs"
               else "");
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
  in
  experiment "F9" "best configuration" cross_arch_grid run

(* F10: adaptive against the static field — every mechanism at its
   best fixed configuration, all over the same return cache so the
   comparison isolates IB-site handling *)

let f10_static =
  [
    ("dispatch", { Config.baseline with Config.returns = rc4096 });
    ("ibtc-4096", ibtc ~returns:rc4096 ());
    ("per-branch-64", ibtc ~shared:false ~per_site:64 ~returns:rc4096 ());
    ("sieve-4096", sieve ~returns:rc4096 ());
  ]

let f10_adaptive = adaptive_cfg ()

let ib_mech_sweep () =
  let a =
    match f10_adaptive.Config.mech with
    | Config.Adaptive a -> a
    | _ -> Config.default_adaptive
  in
  (List.map fst f10_static @ [ "adaptive" ], a)

let f10 =
  let run size =
    let arch_table arch =
      let rows =
        List.map
          (fun e ->
            let statics =
              List.map
                (fun (name, cfg) -> (name, (sdt ~arch ~cfg e size).Run.slowdown))
                f10_static
            in
            let a = (sdt ~arch ~cfg:f10_adaptive e size).Run.slowdown in
            let bn, bs = fastest statics in
            (e.Suite.name :: List.map (fun (_, s) -> Summary.f2 s) statics)
            @ [ Summary.f2 a; bn; Summary.f2 (100.0 *. ((a -. bs) /. bs)) ])
          Suite.all
      in
      let gm cfg =
        Summary.f2
          (Summary.geomean
             (List.map (fun e -> (sdt ~arch ~cfg e size).Run.slowdown) Suite.all))
      in
      let gmrow =
        ("geomean" :: List.map (fun (_, cfg) -> gm cfg) f10_static)
        @ [ gm f10_adaptive; ""; "" ]
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
            let s = sdt ~cfg:f10_adaptive e size in
            let st = s.Run.s_stats in
            let get k = int_of_float (mech_stat s k) in
            [
              e.Suite.name;
              mech_int s "adapt_sites";
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
  in
  experiment "F10" "adaptive IB selection"
    (grid_of ~arches:cross_arches (List.map snd f10_static @ [ f10_adaptive ]))
    run

(* ------------------------------------------------------------------ *)
(* F11: multi-tenant serving *)

(* the serving deployment configuration: shared IBTC + return cache.
   Fast returns are excluded by construction — a bounded shared store
   cannot invalidate fragments whose addresses escaped into
   application state ({!Serve.spec} rejects the combination). *)
let f11_cfg = ibtc ~returns:rc4096 ()

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

let f11_mix_spec ?(cfg = f11_cfg) ?policy ?bound ?dedup size =
  Serve.spec ~cfg ~quantum:f11_quantum ~servers:f11_servers ?policy ?bound
    ?dedup (f11_mix size)

let f11_policies = [ Store.Flush_all; Store.Fifo; Store.Generational ]

(* F11a rows: the standing mix per store policy and bound *)
let f11_policy_specs size =
  let tight, loose = f11_bounds size in
  ("unbounded", f11_mix_spec size)
  :: ("unbounded/no-dedup", f11_mix_spec ~dedup:false size)
  :: List.concat_map
       (fun p ->
         List.map
           (fun (what, bound) ->
             ( Printf.sprintf "%s/%dK %s" (Store.policy_name p) (bound / 1024) what,
               f11_mix_spec ~policy:p ~bound size ))
           [ ("tight", tight); ("loose", loose) ])
       f11_policies

(* F11b rows, the churn schedule: short jobs, repeated — translation
   cost stays a large fraction of every job, so eviction policy shows
   up in throughput and tail latency rather than vanishing into
   execution time. Job sizes are fixed; `Ref turns the arrival stream
   over more times. The bound is ~40% of the mix's 5.1 KB unique
   footprint. *)
let f11_churn_specs size =
  let jobs = match size with `Test -> 2 | `Ref -> 6 in
  let mix =
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
  in
  List.concat_map
    (fun policy ->
      List.map
        (fun (sn, schedule) ->
          ( Store.policy_name policy ^ "/" ^ sn,
            Serve.spec ~cfg:f11_cfg ~quantum:10_000 ~servers:f11_servers ~policy
              ~bound:2048 ~schedule mix ))
        [ ("closed", Serve.Closed); ("open", Serve.Open_loop { period = 15_000 }) ])
    f11_policies

(* F11c rows, tenant scaling: N copies of the same binary, dedup on
   and off *)
let f11_scale_specs size =
  List.map
    (fun n ->
      let spec dedup =
        Serve.spec ~cfg:f11_cfg ~quantum:f11_quantum ~servers:f11_servers ~dedup
          (List.init n (fun i ->
               Serve.tenant (Printf.sprintf "t%d" i) (f11_wl "gzip" size)))
      in
      (n, spec true, spec false))
    [ 1; 2; 4; 6; 8 ]

(* F11d rows: IB mechanism × cache pressure, adaptive included; all
   over the same return cache so the comparison isolates IB-site
   handling *)
let f11_mech_specs size =
  let tight, _ = f11_bounds size in
  List.map
    (fun (mn, cfg) ->
      (mn, f11_mix_spec ~cfg size, f11_mix_spec ~cfg ~policy:Store.Fifo ~bound:tight size))
    [
      ("dispatch", { Config.baseline with Config.returns = rc4096 });
      ("ibtc", f11_cfg);
      ("ibtc+pred2", ibtc ~returns:rc4096 ~pred:2 ());
      ("sieve", sieve ~returns:rc4096 ());
      ("adaptive", adaptive_cfg ());
    ]

let f11_serves size =
  List.map snd (f11_policy_specs size)
  @ List.map snd (f11_churn_specs size)
  @ List.concat_map (fun (_, d, i) -> [ d; i ]) (f11_scale_specs size)
  @ List.concat_map (fun (_, u, b) -> [ u; b ]) (f11_mech_specs size)

let kcyc c = Summary.f1 (c /. 1000.0)

let fig_serving size =
  let policy_rows =
    List.map
      (fun (label, spec) ->
        let r = Run.serve spec in
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
        ])
      (f11_policy_specs size)
  in
  let churn_rows =
    List.map
      (fun (label, spec) ->
        let r = Run.serve spec in
        [
          label;
          Summary.f1 r.Serve.rp_throughput;
          kcyc r.Serve.rp_p50;
          kcyc r.Serve.rp_p99;
          string_of_int r.Serve.rp_dedup_hits;
          string_of_int r.Serve.rp_evictions;
          string_of_int r.Serve.rp_flush_marks;
          string_of_int r.Serve.rp_flushes;
        ])
      (f11_churn_specs size)
  in
  let scale_rows =
    List.map
      (fun (n, d, i) ->
        let d = Run.serve d and i = Run.serve i in
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
      (f11_scale_specs size)
  in
  let mech_rows =
    List.map
      (fun (mn, u, b) ->
        let u = Run.serve u and b = Run.serve b in
        [
          mn;
          Summary.f1 u.Serve.rp_throughput;
          kcyc u.Serve.rp_p99;
          Summary.f1 b.Serve.rp_throughput;
          kcyc b.Serve.rp_p99;
          string_of_int b.Serve.rp_dedup_hits;
          string_of_int b.Serve.rp_evictions;
        ])
      (f11_mech_specs size)
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

(* service specs only: no single-run cell of its own *)
let f11 =
  experiment ~serves:f11_serves "F11" "multi-tenant serving" [] fig_serving

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

let f12_cfgs policies =
  List.concat_map (fun (_, cfg) -> List.map (with_cfi cfg) policies) f12_mechs

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

(* the compartment-count sweep runs sfi on archA only *)
let f12 =
  experiment "F12" "CFI protection overhead"
    (grid_of ~wls:f12_wls ~arches:cross_arches (f12_cfgs (List.map snd f12_policies))
    @ grid_of ~wls:f12_sfi
        (f12_cfgs
           (List.map (fun count -> Config.Cfi_compartment { count }) f12_comp_counts)))
    fig_cfi

let experiments =
  [ t1; f1; f2; f3; f4; f5; f6; f7; f8; f9; f10; f11; f12; a1; a2; a3; a4; a5 ]

let find id =
  let id = String.uppercase_ascii id in
  List.find_opt (fun e -> e.id = id) experiments
