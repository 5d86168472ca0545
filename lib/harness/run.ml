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
(* The memo. Keys are digests of the values a run depends on
   ({!Fingerprint.of_value}): every field of the architecture, the
   configuration or the service spec is in the key, so two runs can
   alias only when they are the same run. *)

let native_memo : native Memo.t = Memo.create ~namespace:"native"
let sdt_memo : sdt Memo.t = Memo.create ~namespace:"sdt"
let serve_memo : Serve.report Memo.t = Memo.create ~namespace:"serve"

let clear_cache () =
  Memo.clear native_memo;
  Memo.clear sdt_memo;
  Memo.clear serve_memo

let set_cache_dir = function
  | None -> ()
  | Some _ -> invalid_arg "Run.set_cache_dir: results are memoised in memory only"

type cache_stats = { hits : int; simulated : int }

let cache_stats () =
  {
    hits = Memo.hits native_memo + Memo.hits sdt_memo + Memo.hits serve_memo;
    simulated =
      Memo.misses native_memo + Memo.misses sdt_memo + Memo.misses serve_memo;
  }

(* ------------------------------------------------------------------ *)

(* Per-cell wall-time spans: each actually-simulated cell (memo misses
   only) is one Chrome-trace span on its worker's track, tagged with
   the cell key and fingerprint so a slow track segment in Perfetto
   resolves directly to a grid cell and its memo entry. *)
let cell_span kind ~key fp f =
  Sdt_par.Telemetry.span ~cat:"harness" ~name:("cell." ^ kind)
    ~args:[ ("key", key); ("fingerprint", fp) ]
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
  let fp = Fingerprint.of_value (spec, !mode) in
  Memo.find serve_memo fp (fun () ->
      cell_span "serve" ~key:(Serve.describe spec) fp @@ fun () ->
      let res = Serve.run ~mode:!mode spec in
      ignore (Atomic.fetch_and_add sim_instrs res.Serve.res_instrs);
      let r = Serve.report_of_result res in
      note serve_counters r;
      r)
