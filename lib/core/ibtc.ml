module Word = Sdt_isa.Word
module Inst = Sdt_isa.Inst
module Reg = Sdt_isa.Reg
module Arch = Sdt_march.Arch
module Machine = Sdt_machine.Machine
module Memory = Sdt_machine.Memory

let empty_tag = 0xFFFF_FFFF

type t = {
  cfg : Config.ibtc;
  shared_base : int;  (* 0 when per-site *)
  mutable site_tables : (int * int) list;
      (* (base, entries) of per-site tables — sizes can differ per site
         (the adaptive mechanism sizes them from its census) *)
  mutable full_miss_routine : int;
  mutable lookup_routine : int;
  (* victim-way choice for 2-way tables: round-robin per (table, set),
     tracked host-side — a hardware IBTC would keep an LRU bit; the
     emitted probe is identical either way *)
  rr_way : (int * int, int) Hashtbl.t;
}

let log2 n =
  let rec go acc n = if n <= 1 then acc else go (acc + 1) (n lsr 1) in
  go 0 n

(* With [ways = 2] the table is organised as [entries/2] sets of two
   (tag, fragment) pairs; the set index is hashed exactly like the
   direct-mapped index, over the set count. *)
let sets_of (cfg : Config.ibtc) ~entries = entries / cfg.ways

let hash_value (cfg : Config.ibtc) ~entries target =
  let sets = sets_of cfg ~entries in
  match cfg.hash with
  | Config.Shift_mask -> (target lsr 2) land (sets - 1)
  | Config.Multiplicative -> Word.mul 0x9E37_79B1 target lsr (32 - log2 sets)

let clear_table env base entries =
  Memory.fill env.Env.machine.Machine.mem base ~words:(2 * entries)
    [| empty_tag; 0 |]

let alloc_table env entries =
  let base = Layout.alloc env.Env.layout ~bytes:(8 * entries) in
  clear_table env base entries;
  base

let fill_entry t env ~base ~cfg ~entries ~target ~frag =
  let mem = env.Env.machine.Machine.mem in
  let idx = hash_value cfg ~entries target in
  if cfg.Config.ways = 1 then begin
    Memory.store_word mem (base + (8 * idx)) target;
    Memory.store_word mem (base + (8 * idx) + 4) frag
  end
  else begin
    let set_base = base + (16 * idx) in
    (* prefer an empty way; otherwise evict round-robin *)
    let way =
      if Memory.load_word mem set_base = empty_tag then 0
      else if Memory.load_word mem (set_base + 8) = empty_tag then 1
      else begin
        let w = Option.value (Hashtbl.find_opt t.rr_way (base, idx)) ~default:0 in
        Hashtbl.replace t.rr_way (base, idx) (1 - w);
        w
      end
    in
    Memory.store_word mem (set_base + (8 * way)) target;
    Memory.store_word mem (set_base + (8 * way) + 4) frag
  end

(* The emitted probe. Enter with the target in $k0; on a hit transfers
   to the fragment with [tail]; on a miss runs the configured policy.
   [base]/[entries] select the table this site probes.

   Every path funnels into one final transfer instruction: under
   [Tail_jalr_ra] the transfer must be the last word of the sequence,
   because the callee's return lands on the word after it. *)
let emit_probe ?on_miss t env ~base ~entries ~tail =
  let em = env.Env.em in
  let cfg = t.cfg in
  let sets = sets_of cfg ~entries in
  Env.emit_spill_prologue env;
  (match cfg.hash with
  | Config.Shift_mask ->
      Emitter.emit em (Inst.Srl (Reg.at, Reg.k0, 2));
      Emitter.emit em (Inst.Andi (Reg.at, Reg.at, sets - 1))
  | Config.Multiplicative ->
      Emitter.li32 em Reg.at 0x9E37_79B1;
      Emitter.emit em (Inst.Mul (Reg.at, Reg.at, Reg.k0));
      Emitter.emit em (Inst.Srl (Reg.at, Reg.at, 32 - log2 sets)));
  Emitter.emit em (Inst.Sll (Reg.at, Reg.at, (if cfg.ways = 2 then 4 else 3)));
  Emitter.li32 em Reg.k1 base;
  Emitter.emit em (Inst.Add (Reg.k1, Reg.k1, Reg.at));
  let lhit = Emitter.fresh em in
  let lhit1 = Emitter.fresh em in
  let lresume = Emitter.fresh em in
  let resume = ref 0 in
  Emitter.emit em (Inst.Lw (Reg.at, Reg.k1, 0));
  Emitter.branch_to em (Inst.Beq (Reg.at, Reg.k0, 0)) lhit;
  if cfg.ways = 2 then begin
    Emitter.emit em (Inst.Lw (Reg.at, Reg.k1, 8));
    Emitter.branch_to em (Inst.Beq (Reg.at, Reg.k0, 0)) lhit1
  end;
  (* miss path *)
  (match cfg.miss with
  | Config.Fast_reload ->
      let gen = env.Env.generation in
      Env.emit_trap env ~code:Env.trap_ibtc_fast (fun m ~trap_pc:_ ->
          let stats = env.Env.stats in
          stats.Stats.ibtc_misses_fast <- stats.Stats.ibtc_misses_fast + 1;
          let target = Machine.reg m Reg.k0 in
          Env.observe env (Sdt_observe.Event.Ibtc_miss { target; fast = true });
          (* CFI: miss path only — a probe hit never re-validates *)
          Env.cfi_validate env ~target;
          let known = Hashtbl.mem env.Env.frags target in
          let frag = env.Env.ensure_translated target in
          Env.charge env
            (if known then env.Env.arch.Arch.fast_miss_cycles
             else
               env.Env.arch.Arch.trap_cycles + env.Env.arch.Arch.lookup_cycles);
          if env.Env.generation = gen then begin
            fill_entry t env ~base ~cfg ~entries ~target ~frag;
            Machine.set_reg m Reg.k1 frag
          end;
          (* the miss hook (adaptive promotion) may emit code and can
             itself force a flush; re-check the generation after it *)
          (match on_miss with Some f -> f ~target | None -> ());
          if env.Env.generation <> gen then
            (* this site was flushed away (while translating the target,
               or by the miss hook); the register file was never
               clobbered, so transfer directly to the fresh fragment *)
            m.Machine.pc <- env.Env.ensure_translated target
          else m.Machine.pc <- !resume)
  | Config.Full_switch ->
      if cfg.shared && tail = Env.Tail_jr then
        (* the shared routine both refills and transfers *)
        Emitter.jump_abs em `J t.full_miss_routine
      else begin
        (* per-site table, or a jalr-tailed site whose transfer must stay
           the last instruction: inline context switch, then rejoin the
           common resume point with the fragment in $k1 *)
        Context.emit_save env;
        let restore = ref 0 in
        let gen = env.Env.generation in
        Env.emit_trap env ~code:Env.trap_ibtc_full (fun m ~trap_pc:_ ->
            let stats = env.Env.stats in
            stats.Stats.ibtc_misses_full <- stats.Stats.ibtc_misses_full + 1;
            let target = Machine.reg m Reg.k0 in
            Env.observe env
              (Sdt_observe.Event.Ibtc_miss { target; fast = false });
            Env.observe env
              (Sdt_observe.Event.Context_switch { routine = "ibtc-full-miss" });
            Env.cfi_validate env ~target;
            let frag = env.Env.ensure_translated target in
            Env.charge env
              (env.Env.arch.Arch.trap_cycles + env.Env.arch.Arch.lookup_cycles);
            if env.Env.generation = gen then begin
              fill_entry t env ~base ~cfg ~entries ~target ~frag;
              Memory.store_word m.Machine.mem env.Env.layout.Layout.result_slot
                frag
            end;
            (match on_miss with Some f -> f ~target | None -> ());
            if env.Env.generation <> gen then
              (* the site (and its saved-context restore path) was
                 flushed; the register file was never clobbered, so
                 jumping straight to the fragment is safe *)
              m.Machine.pc <- env.Env.ensure_translated target
            else m.Machine.pc <- !restore);
        restore := Emitter.here em;
        Context.emit_restore_no_jump env;
        Emitter.jump_to em `J lresume
      end);
  (* hit paths *)
  if cfg.ways = 2 then begin
    Emitter.place em lhit1;
    Emitter.emit em (Inst.Lw (Reg.k1, Reg.k1, 12));
    Emitter.jump_to em `J lresume
  end
  else Emitter.place em lhit1;
  Emitter.place em lhit;
  Emitter.emit em (Inst.Lw (Reg.k1, Reg.k1, 4));
  Emitter.place em lresume;
  resume := Emitter.here em;
  Env.emit_spill_epilogue env;
  Env.emit_transfer env ~tail

let emit_full_miss_routine t env =
  (* shared-table full-miss routine: full context switch, fill, resume *)
  let entry = Emitter.here env.Env.em in
  let lo = entry in
  Context.emit_save env;
  let restore = ref 0 in
  Env.emit_trap env ~code:Env.trap_ibtc_full (fun m ~trap_pc:_ ->
      let stats = env.Env.stats in
      stats.Stats.ibtc_misses_full <- stats.Stats.ibtc_misses_full + 1;
      let target = Machine.reg m Reg.k0 in
      Env.observe env (Sdt_observe.Event.Ibtc_miss { target; fast = false });
      Env.observe env
        (Sdt_observe.Event.Context_switch { routine = "ibtc-full-miss" });
      Env.cfi_validate env ~target;
      let frag = env.Env.ensure_translated target in
      fill_entry t env ~base:t.shared_base ~cfg:t.cfg
        ~entries:t.cfg.Config.entries ~target ~frag;
      Memory.store_word m.Machine.mem env.Env.layout.Layout.result_slot frag;
      Env.charge env
        (env.Env.arch.Arch.trap_cycles + env.Env.arch.Arch.lookup_cycles);
      m.Machine.pc <- !restore);
  restore := Emitter.here env.Env.em;
  Context.emit_restore_and_jump env ~tail:Env.Tail_jr;
  Env.observe_region env ~lo ~hi:(Emitter.here env.Env.em)
    (Sdt_observe.Profile.Service "ibtc miss routine");
  t.full_miss_routine <- entry

let emit_lookup_routine t env =
  let entry = Emitter.here env.Env.em in
  Env.observing_emit env "ibtc lookup routine" (fun () ->
      emit_probe t env ~base:t.shared_base ~entries:t.cfg.Config.entries
        ~tail:Env.Tail_jr);
  t.lookup_routine <- entry

let emit_routines t env =
  if t.cfg.Config.shared then begin
    emit_full_miss_routine t env;
    emit_lookup_routine t env
  end

let create env (cfg : Config.ibtc) =
  let shared_base = if cfg.shared then alloc_table env cfg.entries else 0 in
  let t =
    {
      cfg;
      shared_base;
      site_tables = [];
      full_miss_routine = 0;
      lookup_routine = 0;
      rr_way = Hashtbl.create 64;
    }
  in
  if cfg.shared then env.Env.stats.Stats.ibtc_tables <- 1;
  emit_routines t env;
  t

let routine t =
  if not t.cfg.Config.shared then
    invalid_arg "Ibtc.routine: per-site IBTC has no shared routine";
  t.lookup_routine

let emit_site ?on_miss ?entries ?(seed = []) ?base t env ~tail =
  if t.cfg.Config.shared then begin
    (if t.cfg.Config.inline_lookup then
       emit_probe ?on_miss t env ~base:t.shared_base
         ~entries:t.cfg.Config.entries ~tail
     else Env.emit_goto_routine env ~tail t.lookup_routine);
    t.shared_base
  end
  else begin
    let entries = Option.value entries ~default:t.cfg.Config.per_site_entries in
    let base =
      match base with
      | Some b -> b (* another probe copy over an existing site table *)
      | None ->
          (* per-branch table: allocate one for this site *)
          let b = alloc_table env entries in
          t.site_tables <- (b, entries) :: t.site_tables;
          env.Env.stats.Stats.ibtc_tables <- env.Env.stats.Stats.ibtc_tables + 1;
          (* warm handoff: pre-fill already-translated targets so the
             site does not re-miss on what it has already learned. No
             service charge — the learning was paid for, miss by miss,
             by whoever gathered the seed list *)
          List.iter
            (fun (target, frag) ->
              fill_entry t env ~base:b ~cfg:t.cfg ~entries ~target ~frag)
            seed;
          b
    in
    emit_probe ?on_miss t env ~base ~entries ~tail;
    base
  end

let on_flush t env =
  Hashtbl.reset t.rr_way;
  emit_routines t env;
  if t.cfg.Config.shared then clear_table env t.shared_base t.cfg.Config.entries;
  (* per-site tables are stale along with their sites; their storage is
     not reclaimed (Layout.alloc is monotonic) but they are no longer
     referenced by any live code *)
  t.site_tables <- []

let table_bytes t =
  if t.cfg.Config.shared then 8 * t.cfg.Config.entries
  else List.fold_left (fun acc (_, entries) -> acc + (8 * entries)) 0 t.site_tables

let occupancy t env =
  let mem = env.Env.machine.Machine.mem in
  let count_table base entries =
    let filled = ref 0 in
    for i = 0 to entries - 1 do
      if Memory.load_word mem (base + (8 * i)) <> empty_tag then incr filled
    done;
    !filled
  in
  let filled, entries =
    if t.cfg.Config.shared then
      (count_table t.shared_base t.cfg.Config.entries, t.cfg.Config.entries)
    else
      List.fold_left
        (fun (f, n) (base, entries) ->
          (f + count_table base entries, n + entries))
        (0, 0) t.site_tables
  in
  if entries = 0 then 0.0 else float_of_int filled /. float_of_int entries
