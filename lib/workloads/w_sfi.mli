(** SFI plugin-host stand-in: a trusted host loop dispatching through a
    capability table into plugin entry points spread across the text
    segment, so compartment CFI policies see dominant cross-compartment
    indirect call/return traffic. Registered in {!Suite.extra}, not
    {!Suite.all} — the F1–F11 grids and their table digests are built
    over the SPEC stand-ins only. *)

val name : string
val description : string
val build : size:int -> Sdt_isa.Program.t
