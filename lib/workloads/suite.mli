(** The workload registry: the fourteen SPEC CPU2000 stand-ins (12 INT + 2 FP).

    Each entry carries two calibrated size parameters: [test_size]
    (tens of thousands of dynamic instructions — fast enough for unit
    tests over every SDT configuration) and [ref_size] (hundreds of
    thousands — what the benchmark harness runs). Workloads are
    deterministic; the same size always produces the same output and
    checksum, natively or translated. *)

module Program = Sdt_isa.Program

type entry = {
  name : string;
  description : string;
  build : size:int -> Program.t;
  test_size : int;
  ref_size : int;
}

val all : entry list
(** In the paper's customary SPEC INT order — gzip, vpr, gcc, mcf,
    crafty, parser, eon, perlbmk, gap, vortex, bzip2, twolf — followed
    by two CFP2000 stand-ins, art and equake. *)

val extra : entry list
(** Workloads findable by name but excluded from [all] (and so from
    every F1–F11 grid and its table digests): currently the [sfi]
    plugin-host compartment workload the F12 CFI experiment uses. *)

val find : string -> entry option
(** Looks through [all] and [extra]. *)

val names : string list

val program : entry -> [ `Test | `Ref ] -> Program.t
