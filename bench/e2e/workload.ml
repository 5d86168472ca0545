(* The benchmark's four workloads. Each one is a fixed list of
   operations (one round); the runner repeats rounds for the measured
   time and keeps each operation's fastest execution, so every
   host-time metric describes one round of exactly this work.

   Every workload pins the block interpreter (unless --exec-mode says
   otherwise) and the Cfi_none policy, uses a cold in-memory memo and no
   disk cache. Every guest result is checked against a reference that
   does not come from the code path under test: translated runs and
   service jobs against a native run of the same program, experiment
   tables against committed digests. *)

module Program = Sdt_isa.Program
module Arch = Sdt_march.Arch
module Timing = Sdt_march.Timing
module Machine = Sdt_machine.Machine
module Loader = Sdt_machine.Loader
module Block = Sdt_machine.Block
module Config = Sdt_core.Config
module Runtime = Sdt_core.Runtime
module Stats = Sdt_core.Stats
module Suite = Sdt_workloads.Suite
module Synthetic = Sdt_workloads.Synthetic
module Fingerprint = Sdt_par.Fingerprint
module Serve = Sdt_serve.Serve
module Store = Sdt_serve.Store
module Run = Sdt_harness.Run
module Experiments = Sdt_harness.Experiments
module Table = Sdt_harness.Table

type scale = Full | Smoke

(* What one execution of an operation did. [secs] covers only the
   operation's own work, not the checks after it. Everything but
   [secs] and [rt] is simulated data and repeats exactly for a seed. *)
type outcome = {
  secs : float;
  instrs : int;  (** guest instructions executed, native and SDT *)
  units : int;  (** operations attempted: SDT runs, jobs or experiments *)
  failures : string list;  (** one message per failed unit *)
  slowdowns : (string * float) list;
      (** simulated cycles over native cycles, keyed by run, job or cell *)
  counts : (string * int) list;  (** exact per-layer counts *)
  times : (string * float) list;  (** host seconds spent in named layers *)
  rt : Measure.rt_layers list;  (** split of each wrapped SDT run *)
  latencies : int list;  (** serve: per-job latency, cycles *)
  makespan : int;  (** serve: last completion tick *)
}

let outcome ?(failures = []) ?(slowdowns = []) ?(counts = []) ?(times = [])
    ?(rt = []) ?(latencies = []) ?(makespan = 0) ~secs ~instrs ~units () =
  {
    secs;
    instrs;
    units;
    failures;
    slowdowns;
    counts;
    times;
    rt;
    latencies;
    makespan;
  }

type op = { op_name : string; op_units : int; exec : unit -> outcome }

(* Set-up builds the guest programs and computes the references the
   operations are checked against; [build_s] is the building part. *)
type instance = {
  build_s : float;
  round_start : unit -> unit;
  ops : op list;
  probe : unit -> outcome list;
      (** wrapped runs attributing host time to layers, for workloads
          whose timed runs happen inside library code *)
  programs : (Program.t * Arch.t * Config.t) list;
      (** microbenchmark inputs: the programs and configurations run *)
}

type t = {
  name : string;
  why : string;
  setup :
    scale:scale ->
    seed:int ->
    mode:Measure.mode ->
    traced:bool ->
    grid_ref:string ->
    instance;
}

let now = Measure.now

(* ------------------------------------------------------------------ *)
(* Shared pieces *)

(* Every configuration is pinned here rather than taken from
   Config.default's environment-dependent CFI field. *)
let ibtc = { Config.default with Config.cfi = Config.Cfi_none }
let sieve = { ibtc with Config.mech = Config.Sieve Config.default_sieve }
let dispatch = { Config.baseline with Config.cfi = Config.Cfi_none }

(* a fragment cache too small for any of the programs' working sets:
   translation, flushes and block-cache invalidation dominate *)
let small_cache = { ibtc with Config.code_capacity = 2048 }

let suite name = Option.get (Suite.find name)
let ref_times name k = k * (suite name).Suite.ref_size

(* The only input the seed draws: the IB microbenchmark's target
   stream (Synthetic.seed starts its generator). Its shape stays fixed,
   so every seed does the same work per iteration and exercises the
   same code; what moves is which targets each site sees in which
   order, so IBTC conflicts and branch prediction. *)
let micro ~seed ~iters =
  { Synthetic.ib_sites = 8; targets = 16; fns = 4; recursion_depth = 2; iters; seed }

type reference = {
  r_output : string;
  r_checksum : int;
  r_cycles : int;
  r_instrs : int;
}

(* Step budgets, so that a broken interpreter or translator fails an
   operation in seconds instead of running for an hour: a native run
   repeats the reference's steps exactly, and no mechanism here executes
   more than a few times the native instructions. Runs without a
   reference get a fixed budget. *)
let unbounded_steps = 500_000_000
let native_steps r = (2 * r.r_instrs) + 1_000
let sdt_steps r = (64 * r.r_instrs) + 1_000_000

let native_ref ~mode arch prog =
  let timing = Timing.create arch in
  let m = Loader.load ~timing prog in
  Measure.run_machine mode ~max_steps:unbounded_steps m;
  {
    r_output = Machine.output m;
    r_checksum = m.Machine.checksum;
    r_cycles = Timing.cycles timing;
    r_instrs = m.Machine.c.Machine.instructions;
  }

let check name (r : reference) ~output ~checksum =
  if output = r.r_output && checksum = r.r_checksum then []
  else [ Printf.sprintf "%s: output or checksum differs from the native run" name ]

let block_counts m =
  match Machine.block_stats m with
  | None -> []
  | Some s ->
      [
        ("machine.block_decodes", s.Block.st_decodes);
        ("machine.block_invalidations", s.Block.st_invalidations);
        ("machine.chain_hits", s.Block.st_chain_hits);
        ("machine.chain_severs", s.Block.st_chain_severs);
      ]

let sdt_counts rt timing =
  let st = Runtime.stats rt in
  block_counts (Runtime.machine rt)
  @ [
      ("march.cycles", Timing.cycles timing);
      ("march.runtime_cycles", Timing.runtime_cycles timing);
      ("march.icache_misses", Timing.icache_misses timing);
      ("march.dcache_misses", Timing.dcache_misses timing);
      ("march.ind_mispredicts", Timing.indirect_mispredicts timing);
      ("march.ras_mispredicts", Timing.ras_mispredicts timing);
      ("core.blocks_translated", st.Stats.blocks_translated);
      ("core.flushes", st.Stats.flushes);
      ("core.dispatch_entries", st.Stats.dispatch_entries);
      ( "core.ibtc_misses",
        st.Stats.ibtc_misses_full + st.Stats.ibtc_misses_fast );
      ("core.sieve_misses", st.Stats.sieve_misses);
    ]

(* One translated run, checked against the native reference. *)
let sdt_op ~traced ~mode ~name ~arch ~cfg prog (refs : (string, reference) Hashtbl.t) =
  {
    op_name = name;
    op_units = 1;
    exec =
      (fun () ->
        let r = Hashtbl.find refs arch.Arch.name in
        let rt, timing, secs, split =
          Measure.sdt_run ~wrapped:traced ~mode ~max_steps:(sdt_steps r) ~arch ~cfg prog
        in
        let m = Runtime.machine rt in
        outcome ~secs ~instrs:m.Machine.c.Machine.instructions ~units:1
          ~failures:
            (check name r ~output:(Machine.output m) ~checksum:m.Machine.checksum)
          ~slowdowns:
            [ (name, float_of_int (Timing.cycles timing) /. float_of_int r.r_cycles) ]
          ~counts:(sdt_counts rt timing)
          ~rt:split ());
  }

(* A native run, timed like the translated ones and checked against the
   reference (native execution must be deterministic). *)
let native_op ~mode ~name ~arch prog (refs : (string, reference) Hashtbl.t) =
  {
    op_name = name;
    op_units = 1;
    exec =
      (fun () ->
        let r = Hashtbl.find refs arch.Arch.name in
        let timing = Timing.create arch in
        let t0 = now () in
        let m = Loader.load ~timing prog in
        Measure.run_machine mode ~max_steps:(native_steps r) m;
        let secs = now () -. t0 in
        outcome ~secs ~instrs:m.Machine.c.Machine.instructions ~units:1
          ~failures:(check name r ~output:(Machine.output m) ~checksum:m.Machine.checksum)
          ());
  }

let timed f =
  let t0 = now () in
  let x = f () in
  (x, now () -. t0)

(* Wrapped runs of each program under one configuration, for layer
   attribution only. *)
let probe_runs ~mode runs () =
  List.map
    (fun (name, prog, arch, cfg) ->
      Measure.span ~cat:"probe" name (fun () ->
          let rt, timing, secs, split =
            Measure.sdt_run ~wrapped:true ~mode ~max_steps:unbounded_steps ~arch ~cfg prog
          in
          outcome ~secs
            ~instrs:(Runtime.machine rt).Machine.c.Machine.instructions
            ~units:1 ~counts:(sdt_counts rt timing) ~rt:split ()))
    runs

(* ------------------------------------------------------------------ *)
(* grid: the paper's whole evaluation, as users regenerate it *)

let read_digests file =
  if not (Sys.file_exists file) then []
  else
    In_channel.with_open_text file In_channel.input_lines
    |> List.filter_map (fun l ->
           match String.split_on_char ' ' (String.trim l) with
           | [ id; d ] -> Some (id, d)
           | _ -> None)

let tables_digest tables =
  Digest.to_hex (Digest.string (String.concat "" (List.map Table.render tables)))

let grid_experiments = function
  | Full -> Experiments.experiments
  | Smoke ->
      List.filter_map Experiments.find [ "T1"; "F2" ]

(* the memo key Experiments gives a cell at test size *)
let grid_cell_key (c : Experiments.cell) =
  c.Experiments.cell_entry.Suite.name ^ ":test"

(* Slowdown of every translated cell of an experiment, read back from
   the memo the evaluation just filled (all hits; a key that stopped
   matching would simulate the cell again, outside the timed work). *)
let grid_slowdowns (e : Experiments.experiment) =
  List.filter_map
    (fun (c : Experiments.cell) ->
      match c.Experiments.cell_cfg with
      | None -> None
      | Some cfg ->
          let key = grid_cell_key c in
          let s =
            Run.sdt ~arch:c.Experiments.cell_arch ~cfg ~key (fun () ->
                Suite.program c.Experiments.cell_entry `Test)
          in
          Some
            ( Fingerprint.cell ~key ~arch:c.Experiments.cell_arch ~cfg:(Some cfg),
              s.Run.slowdown ))
    e.Experiments.grid

let grid_op ~mode ~digests (e : Experiments.experiment) =
  let id = e.Experiments.id in
  {
    op_name = id;
    op_units = 1;
    exec =
      (fun () ->
        let c0 = Run.cache_stats () and i0 = Run.simulated_instructions () in
        let t0 = now () in
        let cells = Experiments.evaluate `Test e in
        let t1 = now () in
        let tables = e.Experiments.run `Test in
        let t2 = now () in
        let c1 = Run.cache_stats () and i1 = Run.simulated_instructions () in
        let digest = tables_digest tables in
        (* service runs depend on the interpreter loop, so their tables
           are pinned for block mode only *)
        let pinned = mode = `Block || e.Experiments.serves `Test = [] in
        let failures =
          match List.assoc_opt id digests with
          | _ when not pinned -> []
          | Some d when d = digest -> []
          | Some _ -> [ id ^ ": tables differ from grid_ref.digest" ]
          | None -> [ id ^ ": no digest in grid_ref.digest" ]
        in
        outcome ~secs:(t2 -. t0) ~instrs:(i1 - i0) ~units:1 ~failures
          ~slowdowns:(grid_slowdowns e)
          ~counts:
            [
              ("harness.cells", cells);
              ("par.memo_hits", c1.Run.hits - c0.Run.hits);
              ("par.memo_misses", c1.Run.simulated - c0.Run.simulated);
            ]
          ~times:[ ("harness.evaluate_s", t1 -. t0); ("harness.render_s", t2 -. t1) ]
          ());
  }

let grid_steps = 100_000_000

let grid_probe_programs () =
  List.map (fun e -> (e.Suite.name, Suite.program e `Test)) Suite.all

let grid =
  {
    name = "grid";
    why =
      "every experiment (T1..F12, A1..A5) at test size, as users regenerate \
       the paper: per-cell fixed cost, memo and harness; ignores the seed";
    setup =
      (fun ~scale ~seed:_ ~mode ~traced:_ ~grid_ref ->
        Run.set_exec_mode mode;
        Run.set_cache_dir None;
        (* every cell at test size runs well under 20M steps *)
        Run.max_steps := grid_steps;
        let progs, build_s = timed grid_probe_programs in
        let digests = read_digests grid_ref in
        let probes =
          List.map (fun (n, p) -> ("probe/" ^ n, p, Arch.arch_a, ibtc)) progs
        in
        {
          build_s;
          round_start = Run.clear_cache;
          ops = List.map (grid_op ~mode ~digests) (grid_experiments scale);
          probe = probe_runs ~mode probes;
          programs = List.map (fun (_, p, a, c) -> (p, a, c)) probes;
        });
  }

(* The table digests of the grid as it is now, for --update-grid-ref. *)
let grid_digests ~mode =
  Run.set_exec_mode mode;
  Run.set_cache_dir None;
  Run.clear_cache ();
  List.map
    (fun (e : Experiments.experiment) ->
      ignore (Experiments.evaluate `Test e);
      (e.Experiments.id, tables_digest (e.Experiments.run `Test)))
    Experiments.experiments

(* ------------------------------------------------------------------ *)
(* Direct runs: the two workloads whose runs the benchmark drives itself *)

type prepared = {
  p_name : string;
  p_prog : Program.t;
  p_refs : (string, reference) Hashtbl.t;  (** native reference per arch name *)
}

let prepare entries =
  timed (fun () ->
      List.map
        (fun (name, build) ->
          { p_name = name; p_prog = build (); p_refs = Hashtbl.create 2 })
        entries)

let suite_entry k name () = (suite name).Suite.build ~size:(ref_times name k)

(* [runs] lists, per program, the (label, arch, configuration) of each
   timed run; [None] is a native run. *)
let direct_instance ~traced ~mode ~build_s progs runs =
  let runs = List.map (fun p -> (p, runs p)) progs in
  List.iter
    (fun (p, rs) ->
      List.iter
        (fun (_, (arch : Arch.t), _) ->
          if not (Hashtbl.mem p.p_refs arch.Arch.name) then
            Hashtbl.replace p.p_refs arch.Arch.name (native_ref ~mode arch p.p_prog))
        rs)
    runs;
  {
    build_s;
    round_start = (fun () -> ());
    ops =
      List.concat_map
        (fun (p, rs) ->
          List.map
            (fun (label, (arch : Arch.t), cfg) ->
              let name = Printf.sprintf "%s/%s@%s" p.p_name label arch.Arch.name in
              match cfg with
              | None -> native_op ~mode ~name ~arch p.p_prog p.p_refs
              | Some cfg -> sdt_op ~traced ~mode ~name ~arch ~cfg p.p_prog p.p_refs)
            rs)
        runs;
    probe = (fun () -> []);
    programs =
      List.concat_map
        (fun (p, rs) ->
          List.filter_map
            (fun (_, arch, cfg) -> Option.map (fun c -> (p.p_prog, arch, c)) cfg)
            rs)
        runs;
  }

(* ------------------------------------------------------------------ *)
(* exec-long: long runs where translation is amortised *)

let exec_long =
  {
    name = "exec-long";
    why =
      "perlbmk, gcc, eon, mcf and a seeded IB micro, long, native, IBTC on \
       archA and sieve on archB: interpreter and timing model, few traps";
    setup =
      (fun ~scale ~seed ~mode ~traced ~grid_ref:_ ->
        let k = match scale with Full -> 6 | Smoke -> 1 in
        let progs, build_s =
          prepare
            (List.map
               (fun n -> (n, suite_entry k n))
               [ "perlbmk"; "gcc"; "eon"; "mcf" ]
            @ [
                ( "micro",
                  fun () -> Synthetic.build (micro ~seed ~iters:(6000 * k)) );
              ])
        in
        direct_instance ~traced ~mode ~build_s progs (fun _ ->
            [
              ("native", Arch.arch_a, None);
              ("ibtc", Arch.arch_a, Some ibtc);
              ("native", Arch.arch_b, None);
              ("sieve", Arch.arch_b, Some sieve);
            ]));
  }

(* ------------------------------------------------------------------ *)
(* runtime-churn: every IB or every block goes through the runtime *)

let runtime_churn =
  {
    name = "runtime-churn";
    why =
      "dispatch on perlbmk and eon (every IB traps) and a 2 KiB fragment \
       cache on gcc and a seeded micro (constant flushes and retranslation)";
    setup =
      (fun ~scale ~seed ~mode ~traced ~grid_ref:_ ->
        let k = match scale with Full -> 4 | Smoke -> 1 in
        let progs, build_s =
          prepare
            (List.map (fun n -> (n, suite_entry k n)) [ "perlbmk"; "eon"; "gcc" ]
            @ [
                ( "micro",
                  fun () -> Synthetic.build (micro ~seed ~iters:(1000 * k)) );
              ])
        in
        direct_instance ~traced ~mode ~build_s progs (fun p ->
            match p.p_name with
            | "perlbmk" | "eon" -> [ ("dispatch", Arch.arch_a, Some dispatch) ]
            | _ -> [ ("ibtc-2KiB", Arch.arch_a, Some small_cache) ]));
  }

(* ------------------------------------------------------------------ *)
(* serve-open: the multi-tenant service under open-loop arrivals *)

let serve_spec ~scale ~seed =
  let jobs = match scale with Full -> 40 | Smoke -> 2 in
  (* program sizes are 15% of the sizes the tenants were first chosen
     at, so one service run of 240 jobs fits many times in a run *)
  let wl name size = Serve.Workload { wl = name; size = size * 15 / 100 } in
  Serve.spec ~arch:Arch.arch_a ~cfg:ibtc ~policy:Store.Fifo ~bound:4096
    ~servers:2
    ~schedule:(Serve.Open_loop { period = 1_000_000 })
      (* a job takes about 14 epochs; a job that never ends fails the
         run within seconds *)
    ~max_epochs:(600 * jobs)
    [
      (* two tenants running one binary: dedup has something to share *)
      Serve.tenant ~jobs "gcc-a" (wl "gcc" 300_000);
      Serve.tenant ~jobs "gcc-b" (wl "gcc" 300_000);
      Serve.tenant ~jobs "perlbmk" (wl "perlbmk" 40_000);
      Serve.tenant ~jobs "eon" (wl "eon" 700_000);
      Serve.tenant ~jobs:(2 * jobs) "micro"
        (Serve.Micro (micro ~seed ~iters:(600 * 15 / 100)));
    ]

let serve_open =
  {
    name = "serve-open";
    why =
      "240 jobs from 5 tenants (two share a binary) arriving open-loop into a \
       2-server service with a 4 KiB FIFO store: serve, store and per-job setup";
    setup =
      (fun ~scale ~seed ~mode ~traced:_ ~grid_ref:_ ->
        let spec = serve_spec ~scale ~seed in
        let arch = spec.Serve.sp_arch and cfg = spec.Serve.sp_cfg in
        let tenants = spec.Serve.sp_tenants in
        let program_spec name =
          (List.find (fun (t : Serve.tenant_spec) -> t.Serve.tn_name = name) tenants)
            .Serve.tn_prog
        in
        (* tenants that share a binary share one build, reference and probe *)
        let progs, build_s =
          timed (fun () ->
              List.map (fun (t : Serve.tenant_spec) -> t.Serve.tn_prog) tenants
              |> List.sort_uniq compare
              |> List.map (fun ps -> (ps, Serve.program_of ps)))
        in
        let refs = Hashtbl.create 8 in
        List.iter (fun (ps, p) -> Hashtbl.replace refs ps (native_ref ~mode arch p)) progs;
        let jobs = List.fold_left (fun n t -> n + t.Serve.tn_jobs) 0 tenants in
        let exec () =
          let res, secs = timed (fun () -> Serve.run ~mode spec) in
          let failures, slowdowns =
            List.fold_left
              (fun (fs, ss) (j : Serve.job_result) ->
                let r = Hashtbl.find refs (program_spec j.Serve.jr_tenant) in
                let name =
                  Printf.sprintf "%s#%d" j.Serve.jr_tenant j.Serve.jr_index
                in
                ( check name r ~output:j.Serve.jr_output
                    ~checksum:j.Serve.jr_checksum
                  @ fs,
                  (name, float_of_int j.Serve.jr_cycles /. float_of_int r.r_cycles)
                  :: ss ))
              ([], []) res.Serve.res_jobs
          in
          let missing = jobs - List.length res.Serve.res_jobs in
          outcome ~secs ~instrs:res.Serve.res_instrs ~units:jobs
            ~failures:
              (failures
              @ List.init (max 0 missing) (fun _ ->
                    "a submitted job did not complete"))
            ~slowdowns
            ~latencies:(List.map (fun j -> j.Serve.jr_latency) res.Serve.res_jobs)
            ~makespan:res.Serve.res_makespan
            ~counts:
              [
                ("serve.epochs", res.Serve.res_epochs);
                ("serve.dedup_hits", res.Serve.res_dedup_hits);
                ("serve.evictions", res.Serve.res_evictions);
                ("serve.flushes", res.Serve.res_flushes);
                ("serve.store_peak_bytes", res.Serve.res_store_peak);
              ]
            ~times:[ ("serve.run_s", secs) ]
            ()
        in
        let probes =
          List.map
            (fun (ps, p) ->
              let name =
                match ps with Serve.Workload { wl; _ } -> wl | Serve.Micro _ -> "micro"
              in
              ("probe/" ^ name, p, arch, cfg))
            progs
        in
        {
          build_s;
          round_start = (fun () -> ());
          ops = [ { op_name = "serve"; op_units = jobs; exec } ];
          probe = probe_runs ~mode probes;
          programs = List.map (fun (_, p, a, c) -> (p, a, c)) probes;
        });
  }

let all = [ grid; exec_long; runtime_churn; serve_open ]
let find name = List.find_opt (fun w -> w.name = name) all
