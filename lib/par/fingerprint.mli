(** Result-memo keys derived from the values they stand for.

    A key is the MD5 hex of the value's marshalled bytes, so it covers
    {e every} field of every record in the value: a knob added to
    [Arch.t] or [Config.t] changes the key without a matching edit
    here, two architectures that merely share a [name] cannot alias,
    and neither can two configurations whose differences
    [Config.describe] elides.

    Keys are stable within one build of the program only (the
    marshalled layout is the compiler's), which is why no key is ever
    written out: the memo lives and dies with the process. *)

module Arch = Sdt_march.Arch
module Config = Sdt_core.Config

val of_value : 'a -> string
(** MD5 hex of [Marshal.to_string v [No_sharing]]. For plain data
    only — records, variants, strings, numbers, lists, options: two
    structurally equal values built separately get equal keys, and
    values that differ in any field get different ones. Functional
    values raise [Invalid_argument], and cyclic ones do not
    terminate. *)

val cell : key:string -> arch:Arch.t -> cfg:Config.t option -> string
(** [of_value (key, arch, cfg)]: the key of one experiment cell, with
    [None] for the native (untranslated) run. *)
