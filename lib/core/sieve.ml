module Inst = Sdt_isa.Inst
module Reg = Sdt_isa.Reg
module Arch = Sdt_march.Arch
module Machine = Sdt_machine.Machine
module Memory = Sdt_machine.Memory

type t = {
  cfg : Config.sieve;
  bucket_base : int;
  (* a per-site instance owned by the adaptive mechanism: discarded on
     flush rather than re-emitted, so its miss handler must not resume
     into its own (stale) code after forcing one *)
  transient : bool;
  on_miss : (target:int -> unit) option;
  mutable miss_routine : int;
  mutable dispatch_routine : int;
  (* bucket index -> (chain length, address of the tail stub's "j next"
     word, for tail insertion) *)
  chains : (int, int * int) Hashtbl.t;
}

let hash_value (cfg : Config.sieve) target =
  (target lsr 2) land (cfg.buckets - 1)

let bucket_addr t idx = t.bucket_base + (4 * idx)

let reset_buckets t env =
  Memory.fill env.Env.machine.Machine.mem t.bucket_base
    ~words:t.cfg.Config.buckets [| t.miss_routine |];
  Hashtbl.reset t.chains

(* One sieve stub:
     lui  $at, hi(target)
     ori  $at, $at, lo(target)
     beq  $at, $k0, +1        ; skip the chain link
     j    next                ; next stub in chain, or the miss routine
     [spill epilogue]
     j    fragment
   The "j next" word is what tail insertion patches. *)
let emit_stub t env ~target ~frag ~next =
  let em = env.Env.em in
  let entry = Emitter.here em in
  Emitter.li32 em Reg.at target;
  Emitter.emit em (Inst.Beq (Reg.at, Reg.k0, 1));
  let jnext_at = Emitter.here em in
  Emitter.jump_abs em `J next;
  Env.emit_spill_epilogue env;
  Emitter.jump_abs em `J frag;
  Env.observe_region env ~lo:entry ~hi:(Emitter.here em)
    (Sdt_observe.Profile.Service "sieve chain");
  ignore t;
  (entry, jnext_at)

let emit_miss_routine t env =
  let em = env.Env.em in
  let entry = Emitter.here em in
  Context.emit_save env;
  let restore = ref 0 in
  let gen = env.Env.generation in
  Env.emit_trap env ~code:Env.trap_sieve (fun m ~trap_pc:_ ->
      let stats = env.Env.stats in
      stats.Stats.sieve_misses <- stats.Stats.sieve_misses + 1;
      let target = Machine.reg m Reg.k0 in
      Env.observe env (Sdt_observe.Event.Sieve_miss { target });
      Env.observe env
        (Sdt_observe.Event.Context_switch { routine = "sieve-miss" });
      (* CFI: validate before the target is stubbed into the chain — a
         stub hit thereafter never re-validates *)
      Env.cfi_validate env ~target;
      let mem = m.Machine.mem in
      (* Translating the target or emitting the stub can overflow the
         code region; a flush resets chains and buckets, after which the
         whole insertion is retried against the fresh state — except for
         transient (per-site adaptive) instances, which die with the
         flush: they give up on insertion entirely. *)
      let rec attempt () =
        let frag = env.Env.ensure_translated target in
        let idx = hash_value t.cfg target in
        let baddr = bucket_addr t idx in
        let len, tail_jnext =
          match Hashtbl.find_opt t.chains idx with
          | Some c -> c
          | None -> (0, 0)
        in
        match
          if t.cfg.Config.insert_at_head then begin
            let old_head = Memory.load_word mem baddr in
            let e, j = emit_stub t env ~target ~frag ~next:old_head in
            Memory.store_word mem baddr e;
            (j, frag, idx, len)
          end
          else begin
            let e, j = emit_stub t env ~target ~frag ~next:t.miss_routine in
            if len = 0 then Memory.store_word mem baddr e
            else begin
              (* patch the previous tail's chain link to the new stub *)
              let idx26 = (e lsr 2) land 0x3FF_FFFF in
              Emitter.patch em tail_jnext (Inst.J idx26)
            end;
            (j, frag, idx, len)
          end
        with
        | result -> Some result
        | exception Emitter.Code_full ->
            env.Env.flush ();
            if t.transient then None else attempt ()
      in
      match attempt () with
      | None ->
          (* this per-site sieve died with the flush it forced; the
             register file was never clobbered by the context save, so
             transfer straight to the freshly translated fragment *)
          Env.charge env
            (env.Env.arch.Arch.trap_cycles + env.Env.arch.Arch.lookup_cycles);
          m.Machine.pc <- env.Env.ensure_translated target
      | Some (stub_jnext, frag, idx, len) ->
          Hashtbl.replace t.chains idx (len + 1, stub_jnext);
          stats.Stats.sieve_stubs <- stats.Stats.sieve_stubs + 1;
          Env.observe env
            (Sdt_observe.Event.Sieve_stub_inserted
               { target; chain_len = len + 1 });
          Memory.store_word mem env.Env.layout.Layout.result_slot frag;
          (* the miss hook (adaptive promotion) may emit code and can
             itself force a flush; re-check the generation after it *)
          (match t.on_miss with Some f -> f ~target | None -> ());
          Env.charge env
            (env.Env.arch.Arch.trap_cycles + env.Env.arch.Arch.lookup_cycles
            + (5 * env.Env.arch.Arch.translate_per_inst));
          if t.transient && env.Env.generation <> gen then
            m.Machine.pc <- env.Env.ensure_translated target
          else m.Machine.pc <- !restore);
  restore := Emitter.here em;
  Context.emit_restore_and_jump env ~tail:Env.Tail_jr;
  Env.observe_region env ~lo:entry ~hi:(Emitter.here em)
    (Sdt_observe.Profile.Service "sieve miss routine");
  t.miss_routine <- entry

let emit_body t env ~tail =
  let em = env.Env.em in
  Env.emit_spill_prologue env;
  Emitter.emit em (Inst.Srl (Reg.at, Reg.k0, 2));
  Emitter.emit em (Inst.Andi (Reg.at, Reg.at, t.cfg.Config.buckets - 1));
  Emitter.emit em (Inst.Sll (Reg.at, Reg.at, 2));
  Emitter.li32 em Reg.k1 t.bucket_base;
  Emitter.emit em (Inst.Add (Reg.k1, Reg.k1, Reg.at));
  Emitter.emit em (Inst.Lw (Reg.k1, Reg.k1, 0));
  Env.emit_transfer env ~tail

let emit_dispatch_routine t env =
  let entry = Emitter.here env.Env.em in
  Env.observing_emit env "sieve dispatch routine" (fun () ->
      emit_body t env ~tail:Env.Tail_jr);
  t.dispatch_routine <- entry

let emit_routines t env =
  emit_miss_routine t env;
  emit_dispatch_routine t env

let create ?(transient = false) ?on_miss env (cfg : Config.sieve) =
  let bucket_base = Layout.alloc env.Env.layout ~bytes:(4 * cfg.buckets) in
  let t =
    {
      cfg;
      bucket_base;
      transient;
      on_miss;
      miss_routine = 0;
      dispatch_routine = 0;
      chains = Hashtbl.create 256;
    }
  in
  emit_routines t env;
  reset_buckets t env;
  t

let routine t = t.dispatch_routine
let emit_site t env ~tail = emit_body t env ~tail

(* Pre-insert an already-translated target host-side — the adaptive
   mechanism's warm handoff into a fresh per-site sieve. The stub
   emission and bucket linking are exactly what a miss does, and the
   emission is charged the same way, but the full context switch and
   fragment-map lookup the miss routine pays never happen: the site
   already paid those, miss by miss, learning the target set in its
   previous tier. [Emitter.Code_full] propagates to the caller. *)
let seed t env ~target ~frag =
  let mem = env.Env.machine.Machine.mem in
  let em = env.Env.em in
  let idx = hash_value t.cfg target in
  let baddr = bucket_addr t idx in
  let len, tail_jnext =
    match Hashtbl.find_opt t.chains idx with Some c -> c | None -> (0, 0)
  in
  let stub_jnext =
    if t.cfg.Config.insert_at_head then begin
      let old_head = Memory.load_word mem baddr in
      let e, j = emit_stub t env ~target ~frag ~next:old_head in
      Memory.store_word mem baddr e;
      j
    end
    else begin
      let e, j = emit_stub t env ~target ~frag ~next:t.miss_routine in
      if len = 0 then Memory.store_word mem baddr e
      else Emitter.patch em tail_jnext (Inst.J ((e lsr 2) land 0x3FF_FFFF));
      j
    end
  in
  Hashtbl.replace t.chains idx (len + 1, stub_jnext);
  env.Env.stats.Stats.sieve_stubs <- env.Env.stats.Stats.sieve_stubs + 1;
  Env.observe env
    (Sdt_observe.Event.Sieve_stub_inserted { target; chain_len = len + 1 })
(* no emission charge here: the adaptive respecialize charges every word
   it emits — seeded stubs included — by span *)

let on_flush t env =
  emit_routines t env;
  reset_buckets t env

let stub_count t = Hashtbl.fold (fun _ (len, _) acc -> acc + len) t.chains 0

let max_chain t = Hashtbl.fold (fun _ (len, _) acc -> max acc len) t.chains 0

let avg_chain t =
  let n = Hashtbl.length t.chains in
  if n = 0 then 0.0 else float_of_int (stub_count t) /. float_of_int n

let chain_lengths t =
  Hashtbl.fold (fun _ (len, _) acc -> len :: acc) t.chains []
  |> List.sort compare
