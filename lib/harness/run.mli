(** Measurement drivers: run a program natively and under the SDT with a
    cycle accountant, collect everything the experiments report, and
    verify translated correctness against the native run.

    Both native and SDT results are memoised in process on
    {!Sdt_par.Fingerprint.cell} keys (workload key × every architecture
    field × every configuration field), in a domain-safe single-flight
    cache — the same cell recurring across experiments is simulated
    once per process. Program identity is by build, so callers pass a
    [key] naming the workload and size. *)

module Arch = Sdt_march.Arch
module Program = Sdt_isa.Program
module Config = Sdt_core.Config
module Stats = Sdt_core.Stats
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
  s_instrs : int;  (** machine steps, including emitted SDT code *)
  s_runtime_cycles : int;
  s_icache_misses : int;
  s_dcache_misses : int;
  s_cond_misp : int;
  s_ind_misp : int;
  s_ras_misp : int;
  s_code_bytes : int;
  s_stats : Stats.t;
  s_mech : (string * float) list;
  slowdown : float;  (** s_cycles / native cycles on the same arch *)
}

exception Mismatch of string
(** An SDT run diverged from its native run — a translator bug; the
    harness refuses to report numbers for wrong executions. *)

val native : arch:Arch.t -> key:string -> (unit -> Program.t) -> native
(** Memoised on [(key, arch)] by value — two arches that merely share
    a [name] cannot alias. *)

val sdt :
  arch:Arch.t -> cfg:Config.t -> key:string -> (unit -> Program.t) -> sdt
(** Runs natively first (memoised), then translated (also memoised);
    checks output and checksum; computes [slowdown].
    @raise Mismatch on divergence (first evaluation only — a cached
    cell already passed). *)

val serve : Serve.spec -> Serve.report
(** Run a multi-tenant service spec ({!Sdt_serve.Serve.run}) and
    reduce it to its compact report, memoised on the whole spec
    ({!Sdt_par.Fingerprint.of_value}) {e plus the exec mode}: unlike
    single-run cells, a service's epoch micro-schedule (completion
    ticks, store churn) legitimately depends on the interpreter loop —
    block modes overshoot cycle targets to block boundaries — so modes
    may not share entries (only the guest checksums are
    mode-invariant). Always runs the service engine serially; the
    harness parallelises across {e specs} on the worker pool instead
    (the pool is not reentrant). *)

val clear_cache : unit -> unit
(** Drop every memoised native, SDT and service result and zero the
    counters: the next lookup of any cell simulates it again. *)

val set_cache_dir : string option -> unit
(** Results are memoised in memory only, so [None] is a no-op; it
    stays because [bench/e2e]'s [grid] workload calls it.
    @raise Invalid_argument on [Some _]. *)

type cache_stats = {
  hits : int;  (** cells served from the memo *)
  simulated : int;  (** cells actually simulated *)
}

val cache_stats : unit -> cache_stats
(** Counters since the last {!clear_cache}, native, SDT and service
    memos summed. *)

val max_steps : int ref
(** Step budget per run (default 2 * 10^9). *)

type exec_mode = [ `Step | `Block | `Block_nochain | `Trace ]

val exec_mode_of_string : string -> (exec_mode, string) result
(** Parse [step] | [block] | [block-nochain] | [trace]; the error
    message names the valid values. *)

val exec_mode_name : exec_mode -> string
(** Inverse of {!exec_mode_of_string}. *)

val set_exec_mode : exec_mode -> unit
(** Interpreter loop used for simulated cells: [`Block] (default)
    executes through the compiled basic-block cache with direct block
    chaining, [`Block_nochain] the same without chain links (every
    transition re-probes the cache), [`Trace] the block cache plus the
    hot-trace superblock tier, [`Step] the classic per-instruction
    loop. All four produce bit-identical measured results; the switch
    exists for A/B host-time comparison ([bench/e2e]) and differential
    testing. The default can also be overridden with the
    [SDT_EXEC_MODE] environment variable, which the CI matrix uses to
    re-run the whole suite per mode; an unknown value prints a message
    and exits 2 at startup. *)

val exec_mode : unit -> exec_mode
(** The loop currently in force: [SDT_EXEC_MODE] until
    {!set_exec_mode} changes it. *)

val simulated_instructions : unit -> int
(** Guest instructions executed by actually-simulated runs (memoized
    cells add nothing) since process start; accumulated atomically
    across pool domains. Feeds the bench MIPS report. *)

val counters : unit -> (string * int) list
(** Activity counters summed over every actually-simulated run
    (memoized cells add nothing) since process start, accumulated
    atomically across pool domains, in a fixed order: the block cache
    ([block_decodes], [block_invalidations], [chain_hits],
    [chain_severs], and the trace tier's [trace_compiles],
    [trace_entries], [side_exits], [trace_severs]; native and SDT
    machines alike, all zero under [`Step]), the adaptive mechanism
    ([adapt_promotions], [adapt_demotions], [adapt_repatches]), the
    CFI policy stage ([cfi_checks], [cfi_violations], [cfi_xcalls]),
    and the serving layer ([serve_jobs], [serve_dedup_hits],
    [serve_evictions], [serve_flushes]). The bench JSON reports their
    per-experiment deltas. *)
