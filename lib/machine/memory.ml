module Word = Sdt_isa.Word
module Inst = Sdt_isa.Inst
module Decode = Sdt_isa.Decode

exception Fault of { addr : int; kind : string }

(* The decode cache uses [Inst.Illegal (-1)] as the "not decoded yet"
   sentinel: {!Decode.inst} only ever produces [Illegal w] with
   [0 <= w < 2^32], so the sentinel cannot collide with a real decoding. *)
let not_cached = Inst.Illegal (-1)

(* Guest memory is paged: [page_size]-byte pages indexed by
   [addr lsr page_bits]. Every page no write has touched is
   [zero_page], one shared buffer that is never written, so a fresh
   10 MiB memory costs a 2,560-entry pointer array instead of a 10 MiB
   zero-fill — a test-size run touches a few dozen kilobytes of it, and
   the grid creates over a thousand machines per round. Reads index the
   table without asking which page they hit; writes compare the page
   against [zero_page] and swap in a private one first. Machines on
   different domains all read [zero_page], which is safe only because
   nothing ever writes it. *)
let page_bits = 12
let page_size = 1 lsl page_bits
let page_mask = page_size - 1
let zero_page = Bytes.make page_size '\000'

(* The decode cache is chunked the same way, one chunk per page,
   allocated on the first fetch from the page: a flat array of one
   [Inst.t] per word costs 8 bytes per 4 memory bytes up front (tens of
   megabytes per machine, written at creation and scanned by every
   major GC), yet only the few dozen kilobytes that hold code are ever
   fetched. [no_chunk] marks a chunk no fetch has touched.

   A chunk's words are also split into 64-word ([region_bits]) regions,
   and a store that invalidates a live decoding stamps its region with
   the generation it bumped to. A block whose validation generation
   fell behind asks {!code_changed} about its own words only, so a
   store elsewhere no longer recompiles it. The stamps live in the
   chunk, so pages no fetch has touched cost nothing for them. *)
let chunk_bits = page_bits - 2
let chunk_words = 1 lsl chunk_bits
let chunk_mask = chunk_words - 1
let region_bits = 6
let page_regions_bits = chunk_bits - region_bits
let page_regions_mask = (1 lsl page_regions_bits) - 1

type chunk = { insts : Inst.t array; stamps : int array }

let no_chunk = { insts = [||]; stamps = [||] }

type t = {
  size : int;
  pages : Bytes.t array; (* indexed by address lsr page_bits *)
  decoded : chunk array; (* indexed by word number lsr chunk_bits *)
  (* Block-cache invalidation feed: bumped whenever a store overwrites
     a word whose decoding is currently cached, and written into that
     word's region stamp. Every word a decoded block spans has a live
     decode-cache entry (block decoding goes through {!fetch}), so any
     store into code some block covers bumps the generation and stamps
     a region the block spans — stores to never-fetched words (ordinary
     data, or the SDT emitting a fresh fragment) leave both untouched. *)
  code_gen : int ref;
}

let fault addr kind = raise (Fault { addr; kind })

let create ~size_bytes =
  if size_bytes < 0 then invalid_arg "Memory.create";
  let size = (size_bytes + 3) land lnot 3 in
  let npages = (size + page_mask) lsr page_bits in
  {
    size;
    pages = Array.make npages zero_page;
    decoded = Array.make npages no_chunk;
    code_gen = ref 1;
  }

let size t = t.size
let code_gen t = !(t.code_gen)

(* The generation lives in a shared cell so the block compiler's store
   guards and chain-link validations read it with one dereference
   instead of a cross-module accessor call per check. *)
let code_gen_ref t = t.code_gen

let resident_bytes t =
  Array.fold_left
    (fun n p -> if p == zero_page then n else n + page_size)
    0 t.pages

(* The page to write [addr] through: a page still aliasing [zero_page]
   is replaced by a private zeroed copy first. *)
let[@inline] page_for_write t addr =
  let i = addr lsr page_bits in
  let p = Array.unsafe_get t.pages i in
  if p != zero_page then p
  else begin
    let fresh = Bytes.make page_size '\000' in
    Array.unsafe_set t.pages i fresh;
    fresh
  end

(* Invalidate the cached decoding of word [widx] after a store; if
   there was one, some decoded block may span this word, so bump the
   generation and stamp the word's region with it. A store to a word
   in a never-fetched chunk (ordinary data) costs one array read. *)
let[@inline] note_store t widx =
  let ch = Array.unsafe_get t.decoded (widx lsr chunk_bits) in
  if ch != no_chunk then begin
    let i = widx land chunk_mask in
    if Array.unsafe_get ch.insts i != not_cached then begin
      Array.unsafe_set ch.insts i not_cached;
      incr t.code_gen;
      Array.unsafe_set ch.stamps (i lsr region_bits) !(t.code_gen)
    end
  end

(* Regions are numbered across the whole memory: region [r] is word
   [r lsl region_bits] onward, stamped in chunk [r lsr page_regions_bits]. *)
let rec stamped_after t since r last =
  r <= last
  && (let ch = Array.unsafe_get t.decoded (r lsr page_regions_bits) in
      ch != no_chunk
      && Array.unsafe_get ch.stamps (r land page_regions_mask) > since
     || stamped_after t since (r + 1) last)

let code_changed t ~since lo hi =
  lo < hi
  && stamped_after t since (lo lsr (region_bits + 2))
       ((hi - 1) lsr (region_bits + 2))

(* Written as [addr > size - 4] rather than [addr + 4 > size]: the sum
   wraps negative for [addr] near [max_int] and would pass. *)
let check_word t addr kind =
  if addr land 3 <> 0 then fault addr "align";
  if addr < 0 || addr > t.size - 4 then fault addr kind

(* Guest memory is little-endian; move aligned words with one 32-bit
   access (bounds already established by [check_word]; an aligned word
   never straddles a page) instead of four byte moves. The unsafe
   32-bit primitives read/write native order, so byte-swap on a
   big-endian host. Each branch below is a straight-line chain of int32
   primitives: the compiler keeps the intermediate int32 unboxed, which
   an [if]-join of int32 values would defeat — loads and stores are the
   hottest ops in the system, and a boxed int32 per access would churn
   the minor heap. *)
external get32u : bytes -> int -> int32 = "%caml_bytes_get32u"
external set32u : bytes -> int -> int32 -> unit = "%caml_bytes_set32u"
external swap32 : int32 -> int32 = "%bswap_int32"

let[@inline] get_word p off =
  if Sys.big_endian then Int32.to_int (swap32 (get32u p off)) land 0xFFFF_FFFF
  else Int32.to_int (get32u p off) land 0xFFFF_FFFF

let[@inline] set_word p off w =
  if Sys.big_endian then set32u p off (swap32 (Int32.of_int w))
  else set32u p off (Int32.of_int w)

let load_word t addr =
  check_word t addr "load";
  get_word (Array.unsafe_get t.pages (addr lsr page_bits)) (addr land page_mask)

let store_word t addr w =
  check_word t addr "store";
  set_word (page_for_write t addr) (addr land page_mask) w;
  note_store t (addr lsr 2)

let check_byte t addr kind =
  if addr < 0 || addr >= t.size then fault addr kind

let[@inline] get_byte t addr =
  Char.code
    (Bytes.unsafe_get
       (Array.unsafe_get t.pages (addr lsr page_bits))
       (addr land page_mask))

let load_byte_u t addr =
  check_byte t addr "load";
  get_byte t addr

let load_byte_s t addr = Word.sext8 (load_byte_u t addr)

let store_byte t addr v =
  check_byte t addr "store";
  Bytes.unsafe_set (page_for_write t addr) (addr land page_mask)
    (Char.unsafe_chr (v land 0xFF));
  note_store t (addr lsr 2)

let fetch t addr =
  check_word t addr "fetch";
  let idx = addr lsr 2 in
  let ch = Array.unsafe_get t.decoded (idx lsr chunk_bits) in
  let insts =
    if ch != no_chunk then ch.insts
    else begin
      let fresh =
        {
          insts = Array.make chunk_words not_cached;
          stamps = Array.make (1 lsl page_regions_bits) 0;
        }
      in
      Array.unsafe_set t.decoded (idx lsr chunk_bits) fresh;
      fresh.insts
    end
  in
  let cached = Array.unsafe_get insts (idx land chunk_mask) in
  if cached != not_cached then cached
  else begin
    let i = Decode.inst (load_word t addr) in
    Array.unsafe_set insts (idx land chunk_mask) i;
    i
  end

let read_string t addr =
  let buf = Buffer.create 64 in
  let rec go a =
    let c = load_byte_u t a in
    if c <> 0 then begin
      (* strings handed to the host (syscall puts) are ASCII by
         contract; a high byte means the guest passed a garbage
         pointer — fault like any other bad access instead of leaking
         binary data into the output stream *)
      if c >= 0x80 then fault a "string";
      Buffer.add_char buf (Char.unsafe_chr c);
      go (a + 1)
    end
  in
  go addr;
  Buffer.contents buf

(* The page walk shared by the bulk writers: [f page off a k] writes
   the [k] bytes from address [a], at offset [off] of its page, for
   each page piece of the in-range span [addr, addr + n) in ascending
   order; the written words' decodings are then dropped exactly as
   per-word stores would drop them, skipping pages no fetch touched. *)
let iter_pages t addr n f =
  let rec go a rem =
    if rem > 0 then begin
      let off = a land page_mask in
      let k = min rem (page_size - off) in
      f (page_for_write t a) off a k;
      if Array.unsafe_get t.decoded (a lsr page_bits) != no_chunk then
        for w = a lsr 2 to (a + k - 1) lsr 2 do
          note_store t w
        done;
      go (a + k) (rem - k)
    end
  in
  go addr n

let write_bytes t addr b =
  let n = Bytes.length b in
  if addr < 0 || n > t.size - addr then fault addr "store";
  iter_pages t addr n (fun p off a k -> Bytes.blit b (a - addr) p off k)

(* Only the first period of each page piece is stored word by word;
   the rest is copied from what is already written, doubling each
   time. The copied span is a whole number of periods, so the phase
   carries over. *)
let fill t addr ~words pattern =
  let period = Array.length pattern in
  if words < 0 || period = 0 then invalid_arg "Memory.fill";
  if words > 0 then begin
    if addr land 3 <> 0 then fault addr "align";
    if addr < 0 then fault addr "store";
    if words > (t.size - addr) / 4 then fault (max addr t.size) "store";
    iter_pages t addr (4 * words) (fun p off a k ->
        let first = ((a - addr) / 4) mod period in
        let head = 4 * min period (k / 4) in
        for j = 0 to (head / 4) - 1 do
          set_word p (off + (4 * j)) pattern.((first + j) mod period)
        done;
        let rec double len =
          if len < k then begin
            let n = min len (k - len) in
            Bytes.blit p off p (off + len) n;
            double (len + n)
          end
        in
        double head)
  end

(* The little-endian word at an in-range address of any alignment; one
   that straddles two pages is assembled from its bytes. *)
let word_at t a =
  let off = a land page_mask in
  if off <= page_size - 4 then
    get_word (Array.unsafe_get t.pages (a lsr page_bits)) off
  else
    get_byte t a
    lor (get_byte t (a + 1) lsl 8)
    lor (get_byte t (a + 2) lsl 16)
    lor (get_byte t (a + 3) lsl 24)

(* FNV-1a over a word range, folded into OCaml's 63-bit int space.
   Host-side identity for ranges of simulated memory: the serving
   layer keys shared-store fragments on the emitted code's digest so
   cross-tenant dedup can require bit-identical fragments instead of
   trusting the guest-content key alone. Collisions at that scale are
   negligible, and a false "hit" is additionally guarded by length. *)
let digest_range t ~lo ~len =
  if lo < 0 || len < 0 || len > t.size - lo then fault lo "digest";
  let prime = 0x100000001B3 in
  let h = ref 0x4CB2F29CE484222 in
  let words = len lsr 2 in
  for i = 0 to words - 1 do
    h := (!h lxor word_at t (lo + (i * 4))) * prime land max_int
  done;
  for i = words * 4 to len - 1 do
    h := (!h lxor get_byte t (lo + i)) * prime land max_int
  done;
  !h
