(** Run provenance: the [RUN_META.json] record written next to every
    telemetry dump and embedded in the [sdtbench --json] results.

    A perf number without its provenance (which commit, which host,
    how many workers, which memo state, which execution mode) can't
    be compared to anything; this record pins all of it. *)

val git_sha : unit -> string option
(** The checked-out commit, read directly from [.git/HEAD] (and the
    ref file it points to) — no subprocess. [None] outside a git
    checkout or on an unreadable ref. *)

val hostname : unit -> string

val ib_mechanisms_json :
  swept:string list -> Sdt_core.Config.adaptive -> Sdt_observe.Jsonw.t
(** The IB-mechanism sweep recorded as provenance: the mechanism column
    labels the run compared ([swept], adaptive last) and every adaptive
    promotion/demotion threshold in force. Two runs whose numbers differ
    because a threshold moved stay distinguishable from the record
    alone. *)

val to_json :
  jobs:int ->
  exec_mode:string ->
  cache:string ->
  ?extra:(string * Sdt_observe.Jsonw.t) list ->
  unit ->
  Sdt_observe.Jsonw.t
(** The provenance object: [git_sha] (or [null]), [host], [jobs],
    [exec_mode], [cache], [unix_time] (whole seconds), plus any [extra]
    fields. [cache] names the state of the in-process result memo:
    ["memory"] from [bench/main.exe] (cells shared across the run's
    experiments), ["cold"] from [sdtbench] (cleared every round). *)
