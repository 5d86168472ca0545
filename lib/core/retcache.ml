module Inst = Sdt_isa.Inst
module Reg = Sdt_isa.Reg
module Machine = Sdt_machine.Machine
module Memory = Sdt_machine.Memory

type t = {
  entries : int;
  base : int;
  mutable default_routine : int;
}

let slot_index t ra = (ra lsr 2) land (t.entries - 1)
let slot_addr t ra = t.base + (4 * slot_index t ra)

let reset_slots t env =
  Memory.fill env.Env.machine.Machine.mem t.base ~words:t.entries
    [| t.default_routine |]

let emit_default_routine t env =
  (* an empty slot: hand the return to the IB mechanism *)
  let entry = Emitter.here env.Env.em in
  Emitter.emit env.Env.em (Inst.Add (Reg.k0, Reg.ra, Reg.zero));
  Emitter.jump_abs env.Env.em `J env.Env.mech_routine;
  Env.observe_region env ~lo:entry ~hi:(Emitter.here env.Env.em)
    (Sdt_observe.Profile.Service "retcache default");
  Env.observe_entry env ~pc:entry Sdt_observe.Event.Retcache_fallback;
  t.default_routine <- entry

let create env ~entries =
  let base = Layout.alloc env.Env.layout ~bytes:(4 * entries) in
  let t = { entries; base; default_routine = 0 } in
  emit_default_routine t env;
  reset_slots t env;
  t

let emit_call_site t env ~app_ret ~re =
  Env.observing_emit env "retcache call site" (fun () ->
      let em = env.Env.em in
      Emitter.li32_label em Reg.at re;
      Emitter.li32 em Reg.k1 (slot_addr t app_ret);
      Emitter.emit em (Inst.Sw (Reg.at, Reg.k1, 0)))

let emit_return_entry _t env ~app_ret ~re =
  let em = env.Env.em in
  Emitter.place em re;
  Emitter.li32 em Reg.at app_ret;
  let lok = Emitter.fresh em in
  Emitter.branch_to em (Inst.Beq (Reg.at, Reg.ra, 0)) lok;
  (* mismatch: collision or irregular flow — IB mechanism fallback *)
  let miss_pc = Emitter.here em in
  Emitter.emit em (Inst.Add (Reg.k0, Reg.ra, Reg.zero));
  Emitter.jump_abs em `J env.Env.mech_routine;
  Env.observe_region env ~lo:miss_pc ~hi:(Emitter.here em)
    (Sdt_observe.Profile.Service "retcache fallback");
  Env.observe_entry env ~pc:miss_pc Sdt_observe.Event.Retcache_fallback;
  Emitter.place em lok

let emit_return_site t env =
  Env.observing_emit env "retcache return site" (fun () ->
      let em = env.Env.em in
      Emitter.emit em (Inst.Srl (Reg.at, Reg.ra, 2));
      Emitter.emit em (Inst.Andi (Reg.at, Reg.at, t.entries - 1));
      Emitter.emit em (Inst.Sll (Reg.at, Reg.at, 2));
      Emitter.li32 em Reg.k1 t.base;
      Emitter.emit em (Inst.Add (Reg.k1, Reg.k1, Reg.at));
      Emitter.emit em (Inst.Lw (Reg.k1, Reg.k1, 0));
      Emitter.emit em (Inst.Jr Reg.k1))

let on_flush t env =
  emit_default_routine t env;
  reset_slots t env
