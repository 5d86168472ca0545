module Arch = Sdt_march.Arch
module Timing = Sdt_march.Timing
module Program = Sdt_isa.Program
module Machine = Sdt_machine.Machine
module Loader = Sdt_machine.Loader
module Config = Sdt_core.Config
module Stats = Sdt_core.Stats
module Runtime = Sdt_core.Runtime
module Fingerprint = Sdt_par.Fingerprint
module Memo = Sdt_par.Memo
module Jsonw = Sdt_observe.Jsonw
module Serve = Sdt_serve.Serve

type native = {
  n_instrs : int;
  n_cycles : int;
  n_ijumps : int;
  n_icalls : int;
  n_returns : int;
  n_cond : int;
  n_output : string;
  n_checksum : int;
}

type sdt = {
  s_cycles : int;
  s_instrs : int;
  s_runtime_cycles : int;
  s_icache_misses : int;
  s_dcache_misses : int;
  s_cond_misp : int;
  s_ind_misp : int;
  s_ras_misp : int;
  s_code_bytes : int;
  s_stats : Stats.t;
  s_mech : (string * float) list;
  slowdown : float;
}

exception Mismatch of string

let max_steps = ref 2_000_000_000

type exec_mode = [ `Step | `Block | `Block_nochain | `Trace ]

let exec_mode_name : exec_mode -> string = function
  | `Step -> "step"
  | `Block -> "block"
  | `Block_nochain -> "block-nochain"
  | `Trace -> "trace"

let exec_mode_of_string = function
  | "step" -> Ok `Step
  | "block" -> Ok `Block
  | "block-nochain" -> Ok `Block_nochain
  | "trace" -> Ok `Trace
  | s ->
      Error
        (Printf.sprintf
           "unknown exec mode %S (want step|block|block-nochain|trace)" s)

(* Block modes are a pure host-side speedup (bit-identical measured
   results, enforced by the differential tests), so chained block mode
   is the default; [`Block_nochain] isolates chaining for A/B timing
   and differential testing, [`Step] remains the reference loop.
   SDT_EXEC_MODE overrides the default from the environment so the
   whole test suite can be re-run under another mode without touching
   callers (the CI matrix does). Like SDT_CFI, a bad value fails
   loudly at module init rather than silently testing the default. *)
let mode : exec_mode ref =
  ref
    (match Sys.getenv_opt "SDT_EXEC_MODE" with
    | None | Some "" -> `Block
    | Some s -> (
        match exec_mode_of_string s with
        | Ok m -> m
        | Error msg ->
            prerr_endline ("SDT_EXEC_MODE: " ^ msg);
            exit 2))

let set_exec_mode m = mode := m
let exec_mode () = !mode

let run_machine ~max_steps m =
  match !mode with
  | `Step -> Machine.run ~max_steps m
  | `Block -> Machine.run_blocks ~max_steps m
  | `Block_nochain -> Machine.run_blocks ~chain:false ~max_steps m
  | `Trace -> Machine.run_blocks ~trace:true ~max_steps m

(* Activity counters summed over every actually-simulated run (memoized
   cells add nothing, as with {!sim_instrs}) across pool domains. Each
   family names its counters and reads them off one per-run record;
   {!counters} reports every family in declaration order. *)
let family fields = List.map (fun (name, get) -> (name, get, Atomic.make 0)) fields

let note family x =
  List.iter (fun (_, get, c) -> ignore (Atomic.fetch_and_add c (get x))) family

let read family = List.map (fun (name, _, c) -> (name, Atomic.get c)) family

let block_counters =
  family
    Sdt_machine.Block.
      [
        ("block_decodes", fun s -> s.st_decodes);
        ("block_invalidations", fun s -> s.st_invalidations);
        ("chain_hits", fun s -> s.st_chain_hits);
        ("chain_severs", fun s -> s.st_chain_severs);
        ("trace_compiles", fun s -> s.st_trace_compiles);
        ("trace_entries", fun s -> s.st_trace_entries);
        ("side_exits", fun s -> s.st_side_exits);
        ("trace_severs", fun s -> s.st_trace_severs);
      ]

let stats_counters =
  family
    Stats.
      [
        ("adapt_promotions", fun s -> s.adapt_promotions);
        ("adapt_demotions", fun s -> s.adapt_demotions);
        ("adapt_repatches", fun s -> s.adapt_repatches);
        ("cfi_checks", fun s -> s.cfi_checks);
        ("cfi_violations", fun s -> s.cfi_violations);
        ("cfi_xcalls", fun s -> s.cfi_xcalls);
      ]

let serve_counters =
  family
    Serve.
      [
        ("serve_jobs", fun r -> r.rp_jobs);
        ("serve_dedup_hits", fun r -> r.rp_dedup_hits);
        ("serve_evictions", fun r -> r.rp_evictions);
        ("serve_flushes", fun r -> r.rp_flushes);
      ]

let note_block_stats m = Option.iter (note block_counters) (Machine.block_stats m)

let counters () =
  read block_counters @ read stats_counters @ read serve_counters

(* Instructions actually simulated (cache misses only — memoized cells
   add nothing), accumulated across pool domains; feeds the bench
   MIPS figures. *)
let sim_instrs = Atomic.make 0
let simulated_instructions () = Atomic.get sim_instrs

(* ------------------------------------------------------------------ *)
(* JSON codecs for the on-disk cache. Floats are stored as hexadecimal
   float literals ("%h"), which round-trip bit-exactly — a warm cache
   must reproduce a cold run to the byte, and a decimal detour would
   turn table cells that sit on a rounding boundary into coin flips. *)

let json_float f = Jsonw.Str (Printf.sprintf "%h" f)

let float_of_json = function
  | Jsonw.Str s -> float_of_string_opt s
  | Jsonw.Float f -> Some f
  | Jsonw.Int i -> Some (float_of_int i)
  | _ -> None

let int_of_json = function Jsonw.Int i -> Some i | _ -> None
let str_of_json = function Jsonw.Str s -> Some s | _ -> None

let native_to_json n =
  Jsonw.Obj
    [
      ("instrs", Jsonw.Int n.n_instrs);
      ("cycles", Jsonw.Int n.n_cycles);
      ("ijumps", Jsonw.Int n.n_ijumps);
      ("icalls", Jsonw.Int n.n_icalls);
      ("returns", Jsonw.Int n.n_returns);
      ("cond", Jsonw.Int n.n_cond);
      ("output", Jsonw.Str n.n_output);
      ("checksum", Jsonw.Int n.n_checksum);
    ]

let native_of_json doc =
  let ( let* ) = Option.bind in
  let field k conv = Option.bind (Jsonw.member k doc) conv in
  let* n_instrs = field "instrs" int_of_json in
  let* n_cycles = field "cycles" int_of_json in
  let* n_ijumps = field "ijumps" int_of_json in
  let* n_icalls = field "icalls" int_of_json in
  let* n_returns = field "returns" int_of_json in
  let* n_cond = field "cond" int_of_json in
  let* n_output = field "output" str_of_json in
  let* n_checksum = field "checksum" int_of_json in
  Some
    {
      n_instrs;
      n_cycles;
      n_ijumps;
      n_icalls;
      n_returns;
      n_cond;
      n_output;
      n_checksum;
    }

let stats_to_json (s : Stats.t) =
  Jsonw.Obj (List.map (fun (k, v) -> (k, Jsonw.Int v)) (Stats.to_assoc s))

let stats_of_json doc =
  match doc with
  | Jsonw.Obj _ ->
      let s = Stats.create () in
      let g k =
        match Jsonw.member k doc with Some (Jsonw.Int v) -> v | _ -> 0
      in
      s.Stats.blocks_translated <- g "blocks_translated";
      s.Stats.insts_translated <- g "insts_translated";
      s.Stats.links <- g "links";
      s.Stats.dispatch_entries <- g "dispatch_entries";
      s.Stats.ibtc_misses_full <- g "ibtc_misses_full";
      s.Stats.ibtc_misses_fast <- g "ibtc_misses_fast";
      s.Stats.ibtc_tables <- g "ibtc_tables";
      s.Stats.sieve_misses <- g "sieve_misses";
      s.Stats.sieve_stubs <- g "sieve_stubs";
      s.Stats.retcache_fallbacks <- g "retcache_fallbacks";
      s.Stats.shadow_fallbacks <- g "shadow_fallbacks";
      s.Stats.pred_fills <- g "pred_fills";
      s.Stats.pred_exhausted_sites <- g "pred_exhausted_sites";
      s.Stats.flushes <- g "flushes";
      s.Stats.ib_sites <- g "ib_sites";
      s.Stats.adapt_promotions <- g "adapt_promotions";
      s.Stats.adapt_demotions <- g "adapt_demotions";
      s.Stats.adapt_repatches <- g "adapt_repatches";
      s.Stats.dedup_hits <- g "dedup_hits";
      s.Stats.service_evictions <- g "service_evictions";
      s.Stats.cfi_checks <- g "cfi_checks";
      s.Stats.cfi_validations <- g "cfi_validations";
      s.Stats.cfi_violations <- g "cfi_violations";
      s.Stats.cfi_xcalls <- g "cfi_xcalls";
      Some s
  | _ -> None

let sdt_to_json s =
  Jsonw.Obj
    [
      ("cycles", Jsonw.Int s.s_cycles);
      ("instrs", Jsonw.Int s.s_instrs);
      ("runtime_cycles", Jsonw.Int s.s_runtime_cycles);
      ("icache_misses", Jsonw.Int s.s_icache_misses);
      ("dcache_misses", Jsonw.Int s.s_dcache_misses);
      ("cond_misp", Jsonw.Int s.s_cond_misp);
      ("ind_misp", Jsonw.Int s.s_ind_misp);
      ("ras_misp", Jsonw.Int s.s_ras_misp);
      ("code_bytes", Jsonw.Int s.s_code_bytes);
      ("stats", stats_to_json s.s_stats);
      ( "mech",
        Jsonw.List
          (List.map
             (fun (k, v) -> Jsonw.List [ Jsonw.Str k; json_float v ])
             s.s_mech) );
      ("slowdown", json_float s.slowdown);
    ]

let sdt_of_json doc =
  let ( let* ) = Option.bind in
  let field k conv = Option.bind (Jsonw.member k doc) conv in
  let* s_cycles = field "cycles" int_of_json in
  let* s_instrs = field "instrs" int_of_json in
  let* s_runtime_cycles = field "runtime_cycles" int_of_json in
  let* s_icache_misses = field "icache_misses" int_of_json in
  let* s_dcache_misses = field "dcache_misses" int_of_json in
  let* s_cond_misp = field "cond_misp" int_of_json in
  let* s_ind_misp = field "ind_misp" int_of_json in
  let* s_ras_misp = field "ras_misp" int_of_json in
  let* s_code_bytes = field "code_bytes" int_of_json in
  let* s_stats = field "stats" stats_of_json in
  let* mech_items =
    match Jsonw.member "mech" doc with Some (Jsonw.List l) -> Some l | _ -> None
  in
  let* s_mech =
    List.fold_right
      (fun item acc ->
        let* acc = acc in
        match item with
        | Jsonw.List [ Jsonw.Str k; v ] ->
            let* f = float_of_json v in
            Some ((k, f) :: acc)
        | _ -> None)
      mech_items (Some [])
  in
  let* slowdown = field "slowdown" float_of_json in
  Some
    {
      s_cycles;
      s_instrs;
      s_runtime_cycles;
      s_icache_misses;
      s_dcache_misses;
      s_cond_misp;
      s_ind_misp;
      s_ras_misp;
      s_code_bytes;
      s_stats;
      s_mech;
      slowdown;
    }

let tenant_line_to_json (t : Serve.tenant_line) =
  Jsonw.Obj
    [
      ("name", Jsonw.Str t.Serve.tl_name);
      ("jobs", Jsonw.Int t.Serve.tl_jobs);
      ("checksum", Jsonw.Int t.Serve.tl_checksum);
      ("mean_latency", json_float t.Serve.tl_mean_latency);
      ("p99", json_float t.Serve.tl_p99);
      ("dedup_hits", Jsonw.Int t.Serve.tl_dedup_hits);
      ("flush_marks", Jsonw.Int t.Serve.tl_flush_marks);
      ("cfi_checks", Jsonw.Int t.Serve.tl_cfi_checks);
      ("cfi_violations", Jsonw.Int t.Serve.tl_cfi_violations);
      ("cfi_elided", Jsonw.Int t.Serve.tl_cfi_elided);
    ]

let tenant_line_of_json doc =
  let ( let* ) = Option.bind in
  let field k conv = Option.bind (Jsonw.member k doc) conv in
  let* tl_name = field "name" str_of_json in
  let* tl_jobs = field "jobs" int_of_json in
  let* tl_checksum = field "checksum" int_of_json in
  let* tl_mean_latency = field "mean_latency" float_of_json in
  let* tl_p99 = field "p99" float_of_json in
  let* tl_dedup_hits = field "dedup_hits" int_of_json in
  let* tl_flush_marks = field "flush_marks" int_of_json in
  let* tl_cfi_checks = field "cfi_checks" int_of_json in
  let* tl_cfi_violations = field "cfi_violations" int_of_json in
  let* tl_cfi_elided = field "cfi_elided" int_of_json in
  Some
    {
      Serve.tl_name;
      tl_jobs;
      tl_checksum;
      tl_mean_latency;
      tl_p99;
      tl_dedup_hits;
      tl_flush_marks;
      tl_cfi_checks;
      tl_cfi_violations;
      tl_cfi_elided;
    }

let serve_to_json (r : Serve.report) =
  Jsonw.Obj
    [
      ("jobs", Jsonw.Int r.Serve.rp_jobs);
      ("epochs", Jsonw.Int r.Serve.rp_epochs);
      ("makespan", Jsonw.Int r.Serve.rp_makespan);
      ("instrs", Jsonw.Int r.Serve.rp_instrs);
      ("cycles", Jsonw.Int r.Serve.rp_cycles);
      ("throughput", json_float r.Serve.rp_throughput);
      ("agg_mips", json_float r.Serve.rp_agg_mips);
      ("p50", json_float r.Serve.rp_p50);
      ("p90", json_float r.Serve.rp_p90);
      ("p99", json_float r.Serve.rp_p99);
      ("dedup_hits", Jsonw.Int r.Serve.rp_dedup_hits);
      ("dedup_insts", Jsonw.Int r.Serve.rp_dedup_insts);
      ("flush_marks", Jsonw.Int r.Serve.rp_flush_marks);
      ("flushes", Jsonw.Int r.Serve.rp_flushes);
      ("store_peak", Jsonw.Int r.Serve.rp_store_peak);
      ("store_final", Jsonw.Int r.Serve.rp_store_final);
      ("evictions", Jsonw.Int r.Serve.rp_evictions);
      ("evicted_bytes", Jsonw.Int r.Serve.rp_evicted_bytes);
      ("rejects", Jsonw.Int r.Serve.rp_rejects);
      ("checksum", Jsonw.Int r.Serve.rp_checksum);
      ("cfi_checks", Jsonw.Int r.Serve.rp_cfi_checks);
      ("cfi_violations", Jsonw.Int r.Serve.rp_cfi_violations);
      ("cfi_elided", Jsonw.Int r.Serve.rp_cfi_elided);
      ("tenants", Jsonw.List (List.map tenant_line_to_json r.Serve.rp_tenants));
    ]

let serve_of_json doc =
  let ( let* ) = Option.bind in
  let field k conv = Option.bind (Jsonw.member k doc) conv in
  let* rp_jobs = field "jobs" int_of_json in
  let* rp_epochs = field "epochs" int_of_json in
  let* rp_makespan = field "makespan" int_of_json in
  let* rp_instrs = field "instrs" int_of_json in
  let* rp_cycles = field "cycles" int_of_json in
  let* rp_throughput = field "throughput" float_of_json in
  let* rp_agg_mips = field "agg_mips" float_of_json in
  let* rp_p50 = field "p50" float_of_json in
  let* rp_p90 = field "p90" float_of_json in
  let* rp_p99 = field "p99" float_of_json in
  let* rp_dedup_hits = field "dedup_hits" int_of_json in
  let* rp_dedup_insts = field "dedup_insts" int_of_json in
  let* rp_flush_marks = field "flush_marks" int_of_json in
  let* rp_flushes = field "flushes" int_of_json in
  let* rp_store_peak = field "store_peak" int_of_json in
  let* rp_store_final = field "store_final" int_of_json in
  let* rp_evictions = field "evictions" int_of_json in
  let* rp_evicted_bytes = field "evicted_bytes" int_of_json in
  let* rp_rejects = field "rejects" int_of_json in
  let* rp_checksum = field "checksum" int_of_json in
  let* rp_cfi_checks = field "cfi_checks" int_of_json in
  let* rp_cfi_violations = field "cfi_violations" int_of_json in
  let* rp_cfi_elided = field "cfi_elided" int_of_json in
  let* items =
    match Jsonw.member "tenants" doc with
    | Some (Jsonw.List l) -> Some l
    | _ -> None
  in
  let* rp_tenants =
    List.fold_right
      (fun item acc ->
        let* acc = acc in
        let* t = tenant_line_of_json item in
        Some (t :: acc))
      items (Some [])
  in
  Some
    {
      Serve.rp_jobs;
      rp_epochs;
      rp_makespan;
      rp_instrs;
      rp_cycles;
      rp_throughput;
      rp_agg_mips;
      rp_p50;
      rp_p90;
      rp_p99;
      rp_dedup_hits;
      rp_dedup_insts;
      rp_flush_marks;
      rp_flushes;
      rp_store_peak;
      rp_store_final;
      rp_evictions;
      rp_evicted_bytes;
      rp_rejects;
      rp_checksum;
      rp_cfi_checks;
      rp_cfi_violations;
      rp_cfi_elided;
      rp_tenants;
    }

(* ------------------------------------------------------------------ *)
(* The two memo levels. Keys are full-parameter fingerprints: the old
   cache keyed native runs on [arch.name] alone, so two architectures
   sharing a name but differing in, say, cache geometry silently
   returned each other's results. *)

let native_memo : native Memo.t =
  Memo.create ~namespace:"native" ~to_json:native_to_json
    ~of_json:native_of_json ()

let sdt_memo : sdt Memo.t =
  Memo.create ~namespace:"sdt" ~to_json:sdt_to_json ~of_json:sdt_of_json ()

let serve_memo : Serve.report Memo.t =
  Memo.create ~namespace:"serve" ~to_json:serve_to_json ~of_json:serve_of_json
    ()

let clear_cache () =
  Memo.clear native_memo;
  Memo.clear sdt_memo;
  Memo.clear serve_memo

let set_cache_dir dir =
  Memo.set_dir native_memo dir;
  Memo.set_dir sdt_memo dir;
  Memo.set_dir serve_memo dir

type cache_stats = { hits : int; disk_hits : int; simulated : int }

let cache_stats () =
  {
    hits = Memo.hits native_memo + Memo.hits sdt_memo + Memo.hits serve_memo;
    disk_hits =
      Memo.disk_hits native_memo + Memo.disk_hits sdt_memo
      + Memo.disk_hits serve_memo;
    simulated =
      Memo.misses native_memo + Memo.misses sdt_memo + Memo.misses serve_memo;
  }

(* ------------------------------------------------------------------ *)

(* Per-cell wall-time spans: each actually-simulated cell (memo misses
   only) is one Chrome-trace span on its worker's track, tagged with
   the cell key and fingerprint so a slow track segment in Perfetto
   resolves directly to a grid cell and its cache entry. *)
let cell_span kind ~key fp f =
  Sdt_par.Telemetry.span ~cat:"harness" ~name:("cell." ^ kind)
    ~args:[ ("key", key); ("fingerprint", Fingerprint.digest fp) ]
    f

let native ~arch ~key build =
  let fp = Fingerprint.cell ~key ~arch ~cfg:None in
  Memo.find native_memo fp (fun () ->
      cell_span "native" ~key fp @@ fun () ->
      let timing = Timing.create arch in
      let m = Loader.load ~timing (build ()) in
      run_machine ~max_steps:!max_steps m;
      ignore (Atomic.fetch_and_add sim_instrs m.Machine.c.Machine.instructions);
      note_block_stats m;
      let c = m.Machine.c in
      {
        n_instrs = c.Machine.instructions;
        n_cycles = Timing.cycles timing;
        n_ijumps = c.Machine.ijumps;
        n_icalls = c.Machine.icalls;
        n_returns = c.Machine.returns;
        n_cond = c.Machine.cond_branches;
        n_output = Machine.output m;
        n_checksum = m.Machine.checksum;
      })

let sdt ~arch ~cfg ~key build =
  let nat = native ~arch ~key build in
  let fp = Fingerprint.cell ~key ~arch ~cfg:(Some cfg) in
  Memo.find sdt_memo fp (fun () ->
      cell_span "sdt" ~key fp @@ fun () ->
      let timing = Timing.create arch in
      let rt = Runtime.create ~cfg ~arch ~timing (build ()) in
      Runtime.run ~max_steps:!max_steps ~mode:!mode rt;
      let m = Runtime.machine rt in
      ignore (Atomic.fetch_and_add sim_instrs m.Machine.c.Machine.instructions);
      note_block_stats m;
      note stats_counters (Runtime.stats rt);
      if
        Machine.output m <> nat.n_output
        || m.Machine.checksum <> nat.n_checksum
      then
        raise
          (Mismatch
             (Printf.sprintf "%s under %s on %s diverged from native" key
                (Config.describe cfg) arch.Arch.name));
      {
        s_cycles = Timing.cycles timing;
        s_instrs = m.Machine.c.Machine.instructions;
        s_runtime_cycles = Timing.runtime_cycles timing;
        s_icache_misses = Timing.icache_misses timing;
        s_dcache_misses = Timing.dcache_misses timing;
        s_cond_misp = Timing.cond_mispredicts timing;
        s_ind_misp = Timing.indirect_mispredicts timing;
        s_ras_misp = Timing.ras_mispredicts timing;
        s_code_bytes = Runtime.code_bytes rt;
        s_stats = Runtime.stats rt;
        s_mech = Runtime.mech_stats rt;
        slowdown =
          float_of_int (Timing.cycles timing) /. float_of_int nat.n_cycles;
      })

(* Service runs are memoised like cells, with one twist: the epoch
   micro-schedule (and hence completion ticks and store churn) depends
   on the interpreter loop — block modes overshoot cycle targets to
   block boundaries — so the exec mode is part of the key. Only the
   guest checksums are mode-invariant. The pool is deliberately NOT
   threaded into [Serve.run] here: the harness parallelises across
   serve specs on the pool, and {!Sdt_par.Pool} is not reentrant. *)
let serve spec =
  let fp = Serve.fingerprint spec ^ "|mode=" ^ exec_mode_name !mode in
  Memo.find serve_memo fp (fun () ->
      cell_span "serve" ~key:(Serve.describe spec) fp @@ fun () ->
      let res = Serve.run ~mode:!mode spec in
      ignore (Atomic.fetch_and_add sim_instrs res.Serve.res_instrs);
      let r = Serve.report_of_result res in
      note serve_counters r;
      r)
