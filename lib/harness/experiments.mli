(** The paper's tables and figures, regenerated.

    Each experiment runs the full workload suite (or a documented
    subset) under the relevant SDT configurations and renders the same
    rows/series the paper reports. Absolute cycle counts come from this
    repo's microarchitecture models, not the paper's hardware; what is
    expected to reproduce is the *shape*: orderings, knees, and
    cross-architecture rank flips. See EXPERIMENTS.md for the
    paper-vs-measured record. *)

type size = [ `Test | `Ref ]
(** [`Ref] is the calibrated benchmark size; [`Test] is a fast smoke
    size used by the test suite. *)

type cell = {
  cell_entry : Sdt_workloads.Suite.entry;
  cell_arch : Sdt_march.Arch.t;
  cell_cfg : Sdt_core.Config.t option;  (** [None] = the native run *)
}
(** One point of an experiment's measurement grid: workload ×
    architecture × configuration. *)

type experiment = {
  id : string;  (** "T1", "F1" … "F10", "A1" … "A5" *)
  title : string;
  grid : cell list;
      (** the full measurement grid, declared as data so a worker pool
          can evaluate it ahead of rendering; covers every cell [run]
          will ask for *)
  serves : size -> Sdt_serve.Serve.spec list;
      (** multi-tenant service runs the experiment needs ({!Run.serve}
          cells), declared like [grid] so [evaluate] can pre-warm them
          on the pool; empty for every single-run experiment *)
  run : size -> Table.t list;
      (** assembles the tables; with the grid pre-evaluated this is
          pure cache lookups and deterministic rendering *)
}

val evaluate : ?pool:Sdt_par.Pool.t -> size -> experiment -> int
(** Simulate every not-yet-memoised cell and service spec of the
    experiment — through [pool] when given, serially otherwise — and
    return the number of {e unique} cells plus unique specs, two being
    the same when {!Sdt_par.Fingerprint} gives them the same key (equal
    values). Because results land in {!Run}'s memo under those keys,
    table assembly after [evaluate] is identical for every [jobs]
    count: the pool only decides who simulates, never what is
    reported. *)

val table_ib_characteristics : size -> Table.t list
(** T1: dynamic indirect-branch characteristics of the suite. *)

val fig_baseline_overhead : size -> Table.t list
(** F1: baseline (translator-dispatch) slowdown and where it goes. *)

val fig_ibtc_size_sweep : size -> Table.t list
(** F2: shared-IBTC size sweep — slowdown and miss rate vs entries. *)

val fig_ibtc_sharing : size -> Table.t list
(** F3: one shared table vs per-branch tables. *)

val fig_ibtc_miss_policy : size -> Table.t list
(** F4: full context switch vs fast reload on IBTC misses. *)

val fig_sieve_sweep : size -> Table.t list
(** F5: sieve bucket-count sweep, plus chain-shape statistics. *)

val fig_return_handling : size -> Table.t list
(** F6: returns-as-IB vs return cache vs shadow stack vs fast returns. *)

val fig_target_prediction : size -> Table.t list
(** F7: inline target prediction depth 0/1/2/4. *)

val fig_cross_arch : size -> Table.t list
(** F8: mechanism ranking on archA vs archB. *)

val fig_best_config : size -> Table.t list
(** F9: best configuration per benchmark per architecture. *)

val fig_adaptive : size -> Table.t list
(** F10: adaptive per-site IB mechanism selection vs every static
    mechanism, per architecture, plus site-transition dynamics. *)

val fig_ablation_linking : size -> Table.t list
(** A1: direct-branch linking on/off. *)

val fig_ablation_hash : size -> Table.t list
(** A2: IBTC hash function — shift-mask vs multiplicative. *)

val fig_ablation_sieve_order : size -> Table.t list
(** A3: sieve chain insertion at head vs tail. *)

val fig_ablation_traces : size -> Table.t list
(** A4: superblock formation (translating through direct jumps). *)

val fig_ablation_assoc : size -> Table.t list
(** A5: IBTC associativity (direct-mapped vs 2-way) on small tables. *)

val fig_serving : size -> Table.t list
(** F11: multi-tenant serving — eviction policy × cache bound,
    churn schedules (closed vs open-loop), cross-tenant dedup scaling,
    and IB mechanism × cache pressure, over the shared bounded
    fragment store. *)

val ib_mech_sweep : unit -> string list * Sdt_core.Config.adaptive
(** The IB-mechanism field F10 sweeps (column labels, adaptive last)
    and the adaptive thresholds it runs with — recorded into
    [RUN_META.json] via {!Meta.ib_mechanisms_json}. *)

val experiments : experiment list
(** All of the above, in presentation order. *)

val find : string -> experiment option
(** Look up by id, case-insensitively. *)
