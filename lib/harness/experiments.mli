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
  id : string;  (** "T1", "F1" … "F12", "A1" … "A5" *)
  title : string;
  grid : cell list;
      (** the full measurement grid, derived from the one list that
          names the experiment's configurations so a worker pool can
          evaluate it ahead of rendering; covers every cell [run] will
          ask for and no other *)
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

val ib_mech_sweep : unit -> string list * Sdt_core.Config.adaptive
(** The IB-mechanism field F10 sweeps (column labels, adaptive last)
    and the adaptive thresholds it runs with — recorded into
    [RUN_META.json] via {!Meta.ib_mechanisms_json}. *)

val experiments : experiment list
(** Every experiment, in presentation order: T1 (IB characteristics),
    F1–F12 (the paper's figures, then the adaptive, serving and CFI
    extensions) and A1–A5 (ablations). DESIGN.md's experiment index
    says what each one measures. *)

val find : string -> experiment option
(** Look up by id, case-insensitively. *)
