(** Byte-addressable simulated memory with a decoded-instruction cache.

    Memory is one little-endian address space shared by application
    code, data, stack, and the translator's fragment cache and tables —
    the SDT emits code by storing words here, and the CPU executes it
    from here. The host backs it with 4 KiB pages allocated on first
    write: every untouched page aliases one shared zero page, so
    creating a memory costs a page table, not a zero-fill, and reading
    untouched memory costs no host memory.

    Fetches go through a decode cache so the interpreter does not re-decode
    hot instruction words; any store into a word invalidates that word's
    cached decoding, which is what makes fragment linking (patching
    emitted code in place) safe. *)

module Word = Sdt_isa.Word
module Inst = Sdt_isa.Inst

type t

exception Fault of { addr : int; kind : string }
(** Out-of-range or misaligned access. [kind] is a short description
    ("load", "store", "fetch", "align"). *)

val create : size_bytes:int -> t
(** Fresh memory that reads as zero everywhere. [size_bytes] is
    rounded up to a multiple of 4. No page is allocated until it is
    written: creating a memory costs two pointer arrays, the page table
    and the decode cache, with one entry per 4 KiB.
    @raise Invalid_argument when [size_bytes] is negative. *)

val size : t -> int

val resident_bytes : t -> int
(** Host bytes backing the pages written so far: 4096 per page any
    store, byte store or {!write_bytes} has touched, 0 for a fresh
    memory however large. Scans the page table; for tests and
    diagnostics, not the hot path. The decode cache is not counted. *)

val load_word : t -> int -> Word.t
(** @raise Fault on misaligned or out-of-range address. *)

val store_word : t -> int -> Word.t -> unit
val load_byte_u : t -> int -> int
val load_byte_s : t -> int -> int
val store_byte : t -> int -> int -> unit

val fetch : t -> int -> Inst.t
(** Decode the instruction word at an address, with caching. *)

val read_string : t -> int -> string
(** Read a NUL-terminated ASCII string.
    @raise Fault (kind ["string"]) on a byte [>= 0x80] — a garbage
    pointer, not text — as well as on running off the end of memory. *)

val write_bytes : t -> int -> bytes -> unit
(** Bulk copy (used by the loader); invalidates affected decode-cache
    entries. *)

(** {1 Block-cache invalidation feed}

    The block interpreter ({!Block}) decodes straight-line runs of
    instructions once and re-executes them, which is only sound if a
    store into decoded code is noticed before the stale block runs
    again — the SDT both writes fragments into this memory and patches
    already-executed words in place (exit-stub linking, sieve stub
    insertion). Any store that overwrites a word whose decoding is
    currently cached (every word a decoded block spans is) bumps
    {!code_gen}; blocks compare their decode-time generation against it
    before executing. *)

val code_gen : t -> int
(** Current code generation. Monotonic; bumped by any store into a
    word with a live cached decoding. *)

val code_gen_ref : t -> int ref
(** The generation's underlying cell, shared for the lifetime of the
    memory. The block compiler captures it in store-guard closures and
    chain-link validation so the hot path pays one dereference per
    check. Callers must treat it as read-only — only {!Memory}'s own
    stores bump it, which is what severs stale block-chain links. *)

val digest_range : t -> lo:int -> len:int -> int
(** FNV-1a digest (folded to a non-negative OCaml [int]) of [len]
    bytes starting at [lo] — a host-side content key over simulated
    memory. The multi-tenant serving layer uses it to key shared-store
    fragments on their emitted bytes, making cross-tenant dedup
    require bit-identical code.
    @raise Fault (kind ["digest"]) when the range is out of bounds. *)
