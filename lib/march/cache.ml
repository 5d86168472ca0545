type config = {
  size_bytes : int;
  line_bytes : int;
  assoc : int;
  miss_penalty : int;
}

type t = {
  cfg : config;
  sets : int;
  line_shift : int;
  tags : int array;   (* sets * assoc, -1 = invalid *)
  stamps : int array; (* LRU timestamps *)
  mutable clock : int;
  mutable hits : int;
  mutable misses : int;
}

let is_pow2 n = n > 0 && n land (n - 1) = 0

let log2 n =
  let rec go acc n = if n = 1 then acc else go (acc + 1) (n lsr 1) in
  go 0 n

let create cfg =
  if cfg.line_bytes <= 0 || not (is_pow2 cfg.line_bytes) then
    invalid_arg "Cache.create: line size must be a power of two";
  if cfg.assoc <= 0 then invalid_arg "Cache.create: assoc must be positive";
  let sets = cfg.size_bytes / (cfg.line_bytes * cfg.assoc) in
  if sets <= 0 || not (is_pow2 sets) then
    invalid_arg "Cache.create: set count must be a positive power of two";
  {
    cfg;
    sets;
    line_shift = log2 cfg.line_bytes;
    tags = Array.make (sets * cfg.assoc) (-1);
    stamps = Array.make (sets * cfg.assoc) 0;
    clock = 0;
    hits = 0;
    misses = 0;
  }

let config t = t.cfg
let line_index t addr = addr lsr t.line_shift

(* The way of [base .. base + assoc - 1] holding [line], or -1. A
   top-level function, not a local closure: without flambda a local
   [let rec] capturing the tag array and the set is allocated on every
   access. The annotations keep [=] an integer compare. *)
let rec probe (tags : int array) (base : int) (assoc : int) (line : int)
    (i : int) =
  if i = assoc then -1
  else if Array.unsafe_get tags (base + i) = line then i
  else probe tags base assoc line (i + 1)

(* Allocation-free: this runs once per simulated load/store (dcache)
   and per fetched line (icache), so the probe returns a way index
   instead of an option and the indices stay in [0, sets*assoc) by
   construction (unsafe accesses). *)
let access t addr =
  let line = addr lsr t.line_shift in
  let set = line land (t.sets - 1) in
  let assoc = t.cfg.assoc in
  let base = set * assoc in
  t.clock <- t.clock + 1;
  let tags = t.tags and stamps = t.stamps in
  let way = probe tags base assoc line 0 in
  if way >= 0 then begin
    t.hits <- t.hits + 1;
    Array.unsafe_set stamps (base + way) t.clock;
    true
  end
  else begin
    t.misses <- t.misses + 1;
    (* evict LRU way *)
    let victim = ref 0 in
    for i = 1 to assoc - 1 do
      if
        Array.unsafe_get stamps (base + i)
        < Array.unsafe_get stamps (base + !victim)
      then victim := i
    done;
    Array.unsafe_set tags (base + !victim) line;
    Array.unsafe_set stamps (base + !victim) t.clock;
    false
  end

let hits t = t.hits
let misses t = t.misses

let reset t =
  Array.fill t.tags 0 (Array.length t.tags) (-1);
  Array.fill t.stamps 0 (Array.length t.stamps) 0;
  t.clock <- 0;
  t.hits <- 0;
  t.misses <- 0
