(** Multi-tenant SDT serving: N guest jobs, one translation service.

    The service runs a mix of tenants — each a stream of guest jobs
    built from the workload suite or the {!Sdt_workloads.Synthetic}
    IB-microbenchmark generator — against one shared, {e bounded}
    fragment store ({!Store}) with pluggable eviction and cross-tenant
    content dedup, on the {!Sdt_par.Pool} Domain workers.

    {2 Execution model}

    Time is virtual: one tick is one simulated cycle. Execution is
    epoch-based and bulk-synchronous, which is what makes results
    independent of [--jobs]: each epoch, every active job runs one
    quantum of [sp_quantum] cycles {e in parallel} (jobs touch only
    their own machine and environment; the shared store is read-only
    during an epoch), then a deterministic barrier — processed in
    slot order — publishes freshly translated fragments into the
    store, applies eviction and invalidation marks, records
    completions, and schedules arrivals.

    {2 The shared store and dedup}

    Every tenant still emits into its own simulated fragment cache
    (tenant memories are disjoint); the store is the service-level
    shared backing cache those private caches are mappings of.
    Fragments are keyed by (application PC, emitted size,
    emitted-code digest, CFI policy name), so a dedup hit {e requires}
    bit-identical emitted code under the same IB policy — the common
    case being N tenants running the same binary. A hit replaces the translation charge
    ([insts * translate_per_inst]) with a copy charge
    ([insts * sp_copy_per_inst]); guest-visible results are untouched
    (per-tenant output and checksums stay bit-identical to isolated
    runs — a qcheck property).

    When an insert overflows the bound, evicted entries invalidate
    the tenants still linked to them: the serving layer marks the
    tenant ({!Sdt_core.Env.service}), and the mark is applied as a
    fragment-cache flush at the tenant's next translation lookup —
    the same lazy-invalidation boundary the overflow path uses, so
    block-cache chains and traces are severed by the ordinary
    {!Sdt_machine.Memory.code_gen} machinery when the flushed cache
    is rewritten. *)

module Arch = Sdt_march.Arch
module Config = Sdt_core.Config
module Synthetic = Sdt_workloads.Synthetic
module Pool = Sdt_par.Pool
module Registry = Sdt_observe.Registry

exception Error of string

(** {1 Specifications} *)

type program_spec =
  | Workload of { wl : string; size : int }
      (** a {!Sdt_workloads.Suite} entry at an explicit size *)
  | Micro of Synthetic.params  (** a generated IB microbenchmark *)

type tenant_spec = {
  tn_name : string;
  tn_prog : program_spec;
  tn_jobs : int;  (** jobs this tenant submits over the run *)
}

type schedule =
  | Closed
      (** closed loop: each tenant keeps one job in flight — job [k]
          arrives the instant job [k-1] completes (all first jobs
          arrive at tick 0 and compete for server slots) *)
  | Open_loop of { period : int }
      (** open loop: one arrival every [period] ticks, round-robin
          across tenants, regardless of completions — the
          backpressure-free churn schedule *)

type spec = {
  sp_tenants : tenant_spec list;
  sp_arch : Arch.t;
  sp_cfg : Config.t;  (** one SDT configuration shared by all tenants *)
  sp_policy : Store.policy;
  sp_bound : int;  (** shared-store byte bound; 0 = unbounded *)
  sp_budget : int;  (** per-tenant published-byte budget; 0 = none *)
  sp_dedup : bool;
      (** content-keyed cross-tenant sharing; when off, store keys are
          tenant-prefixed so occupancy still counts every private copy *)
  sp_quantum : int;  (** cycles of service per job per epoch *)
  sp_servers : int;  (** concurrent service slots *)
  sp_schedule : schedule;
  sp_copy_per_inst : int;  (** dedup-hit charge per application instruction *)
  sp_max_epochs : int;  (** safety valve against scheduling bugs *)
}
(** Plain data: the harness memoises service runs on
    {!Sdt_par.Fingerprint.of_value} of the spec, so every field is part
    of the key, and a function stored in a spec would make that key
    raise. *)

val tenant : ?jobs:int -> string -> program_spec -> tenant_spec
(** [jobs] defaults to 1. *)

val program_of : program_spec -> Sdt_isa.Program.t
(** Build the guest program a spec denotes (tests compare service jobs
    against isolated runs of exactly this program).
    @raise Error on an unknown workload name. *)

val spec :
  ?arch:Arch.t ->
  ?cfg:Config.t ->
  ?policy:Store.policy ->
  ?bound:int ->
  ?budget:int ->
  ?dedup:bool ->
  ?quantum:int ->
  ?servers:int ->
  ?schedule:schedule ->
  ?copy_per_inst:int ->
  ?max_epochs:int ->
  tenant_spec list ->
  spec
(** Defaults: [arch_a], {!Config.default}, [Fifo], unbounded, no
    budget, dedup on, 50k-cycle quantum, 2 servers, [Closed],
    copy cost 2 cycles/inst.
    @raise Error on an empty tenant list, a non-positive quantum or
    server count, an unknown workload name, or a bounded/budgeted
    store under the fast-return policy (whose fragment addresses
    escape into application state and cannot be invalidated). *)

val describe : spec -> string
(** Short human-readable summary for table titles and logs. *)

(** {1 Results} *)

type job_result = {
  jr_tenant : string;
  jr_tenant_ix : int;
  jr_index : int;  (** per-tenant job number *)
  jr_arrival : int;  (** tick *)
  jr_completion : int;  (** tick *)
  jr_latency : int;  (** completion - arrival, in cycles *)
  jr_cycles : int;  (** simulated cycles the job itself consumed *)
  jr_instrs : int;
  jr_exit : int;
  jr_checksum : int;
  jr_output : string;
  jr_dedup_hits : int;
  jr_flush_marks : int;  (** service invalidations targeting this job *)
  jr_flushes : int;  (** fragment-cache flushes (marks applied + overflows) *)
  jr_cfi_checks : int;  (** CFI policy membership checks the job paid *)
  jr_cfi_violations : int;
  jr_cfi_elided : int;
      (** indirect transfers delivered by a mechanism hit path with no
          re-check ([ib_dynamic - cfi_checks]); 0 under [Cfi_none] *)
}

type result = {
  res_jobs : job_result list;  (** sorted by (tenant, job index) *)
  res_epochs : int;
  res_makespan : int;  (** last completion tick *)
  res_instrs : int;
  res_cycles : int;  (** sum of per-job consumed cycles *)
  res_dedup_hits : int;
  res_dedup_insts : int;  (** application instructions served by copy *)
  res_flush_marks : int;
  res_flushes : int;
  res_store_peak : int;
  res_store_final : int;
  res_store_entries : int;
  res_evictions : int;
  res_evicted_bytes : int;
  res_rejects : int;
  res_registry : Registry.t;
      (** per-tenant labeled instruments: [serve.latency_cycles]
          histograms (overall + one per tenant), [serve.jobs],
          [serve.dedup_hits], [serve.flush_marks], [cfi.checks],
          [cfi.violations], [cfi.elided] counters *)
}

val run :
  ?pool:Pool.t ->
  ?mode:[ `Step | `Block | `Block_nochain | `Trace ] ->
  spec ->
  result
(** Run the service to completion of every job. With a [pool], epochs
    run their quanta on the pool's Domain workers (each quantum is one
    labeled {!Sdt_par.Telemetry} span, so traces show which tenant
    occupied which Domain track); without one, strictly serially —
    results are identical either way.
    @raise Error on spec validation failures or if [sp_max_epochs]
    elapses. *)

val latency_percentile : result -> float -> float
(** Percentile over the run's job-latency histogram
    ({!Sdt_observe.Histo.percentile}: bucket-interpolated). *)

val tenant_percentile : result -> string -> float -> float
(** Same, for one tenant's histogram; 0.0 for an unknown tenant. *)

(** {1 Compact report (memoised form)} *)

type tenant_line = {
  tl_name : string;
  tl_jobs : int;
  tl_checksum : int;  (** order-sensitive fold of per-job checksums *)
  tl_mean_latency : float;
  tl_p99 : float;
  tl_dedup_hits : int;
  tl_flush_marks : int;
  tl_cfi_checks : int;
  tl_cfi_violations : int;
  tl_cfi_elided : int;
}

type report = {
  rp_jobs : int;
  rp_epochs : int;
  rp_makespan : int;
  rp_instrs : int;
  rp_cycles : int;
  rp_throughput : float;  (** jobs per giga-cycle (jobs/sec at 1 GHz) *)
  rp_agg_mips : float;  (** aggregate guest MIPS at 1 GHz virtual time *)
  rp_p50 : float;
  rp_p90 : float;
  rp_p99 : float;  (** latency percentiles, cycles *)
  rp_dedup_hits : int;
  rp_dedup_insts : int;
  rp_flush_marks : int;
  rp_flushes : int;
  rp_store_peak : int;
  rp_store_final : int;
  rp_evictions : int;
  rp_evicted_bytes : int;
  rp_rejects : int;
  rp_checksum : int;  (** fold over tenant checksums, isolation-invariant *)
  rp_cfi_checks : int;
  rp_cfi_violations : int;
  rp_cfi_elided : int;
  rp_tenants : tenant_line list;
}

val report_of_result : result -> report
