(* Tests for the sdt_machine library: memory, syscalls, and the
   fetch-decode-execute core. *)

module Word = Sdt_isa.Word
module Reg = Sdt_isa.Reg
module Inst = Sdt_isa.Inst
module Encode = Sdt_isa.Encode
module Builder = Sdt_isa.Builder
module Assembler = Sdt_isa.Assembler
module Arch = Sdt_march.Arch
module Timing = Sdt_march.Timing
module Memory = Sdt_machine.Memory
module Machine = Sdt_machine.Machine
module Syscall = Sdt_machine.Syscall
module Loader = Sdt_machine.Loader
module Decode = Sdt_isa.Decode
module Program = Sdt_isa.Program
module Suite = Sdt_workloads.Suite

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool
let string = Alcotest.string

(* ------------------------------------------------------------------ *)
(* Memory *)

let test_memory_words () =
  let m = Memory.create ~size_bytes:4096 in
  Memory.store_word m 0x100 0xDEAD_BEEF;
  check int "load back" 0xDEAD_BEEF (Memory.load_word m 0x100);
  check int "little endian byte 0" 0xEF (Memory.load_byte_u m 0x100);
  check int "little endian byte 3" 0xDE (Memory.load_byte_u m 0x103);
  Memory.store_byte m 0x100 0x01;
  check int "byte store visible in word" 0xDEAD_BE01 (Memory.load_word m 0x100)

let test_memory_faults () =
  let m = Memory.create ~size_bytes:4096 in
  let faults f = match f () with exception Memory.Fault _ -> true | _ -> false in
  check bool "misaligned load" true (faults (fun () -> Memory.load_word m 2));
  check bool "oob load" true (faults (fun () -> Memory.load_word m 4096));
  check bool "negative" true (faults (fun () -> Memory.load_byte_u m (-1)));
  check bool "oob store" true (faults (fun () -> Memory.store_word m 4094 0));
  (* bounds checks must not wrap: [addr + 4] and [lo + len] overflow
     near [max_int] and would let the access through unchecked *)
  let top = max_int - 3 in
  check bool "load near max_int" true (faults (fun () -> Memory.load_word m top));
  check bool "store near max_int" true
    (faults (fun () -> Memory.store_word m top 0));
  check bool "fetch near max_int" true (faults (fun () -> Memory.fetch m top));
  check bool "digest of max_int bytes" true
    (faults (fun () -> Memory.digest_range m ~lo:4 ~len:max_int))

let test_memory_decode_cache_invalidation () =
  let m = Memory.create ~size_bytes:4096 in
  Memory.store_word m 0x200 (Encode.inst (Inst.Addi (Reg.t0, Reg.zero, 7)));
  (match Memory.fetch m 0x200 with
  | Inst.Addi (_, _, 7) -> ()
  | i -> Alcotest.failf "bad fetch: %s" (Inst.to_string i));
  (* patch the word — the stale decoding must be dropped *)
  Memory.store_word m 0x200 (Encode.inst (Inst.Addi (Reg.t0, Reg.zero, 9)));
  (match Memory.fetch m 0x200 with
  | Inst.Addi (_, _, 9) -> ()
  | i -> Alcotest.failf "stale decode cache: %s" (Inst.to_string i));
  (* byte stores must invalidate too *)
  Memory.store_byte m 0x200 0xFF;
  (match Memory.fetch m 0x200 with
  | Inst.Addi (_, _, 9) -> Alcotest.fail "stale decode after byte store"
  | _ -> ())

let test_memory_read_string () =
  let m = Memory.create ~size_bytes:4096 in
  String.iteri (fun i c -> Memory.store_byte m (0x300 + i) (Char.code c)) "via\000";
  check string "read" "via" (Memory.read_string m 0x300);
  (* strings are ASCII by contract: a byte >= 0x80 is not silently
     passed through but faulted, like any other malformed access *)
  Memory.store_byte m 0x400 (Char.code 'a');
  Memory.store_byte m 0x401 0x80;
  Memory.store_byte m 0x402 0x00;
  check bool "high byte faults" true
    (match Memory.read_string m 0x400 with
    | exception Memory.Fault _ -> true
    | _ -> false)

(* Pages are allocated on first write, so an eager fill cannot come
   back unnoticed: reads of untouched memory (including fetches, which
   fill the decode cache) allocate nothing, and loading a program
   allocates exactly the pages its segments span. *)
let test_memory_lazy () =
  let m = Memory.create ~size_bytes:Loader.default_mem_size in
  check int "fresh" 0 (Memory.resident_bytes m);
  let size = Memory.size m in
  let a = ref 0 in
  while !a < size do
    ignore (Memory.load_word m !a);
    ignore (Memory.load_byte_s m (!a + 1));
    ignore (Memory.fetch m !a);
    a := !a + 0x1_0000
  done;
  check string "string" "" (Memory.read_string m 0x100);
  ignore (Memory.digest_range m ~lo:0 ~len:size);
  check int "after reads" 0 (Memory.resident_bytes m);
  Memory.store_byte m 0x1001 7;
  Memory.store_word m 0x1ffc 7;
  check int "two stores, one page" 4096 (Memory.resident_bytes m);
  let p = Suite.program (Option.get (Suite.find "gcc")) `Test in
  let pages = Hashtbl.create 16 in
  List.iter
    (fun { Program.base; data } ->
      let n = Bytes.length data in
      if n > 0 then
        for pg = base / 4096 to (base + n - 1) / 4096 do
          Hashtbl.replace pages pg ()
        done)
    p.Program.segments;
  let loaded = Loader.load p in
  check bool "program has pages" true (Hashtbl.length pages > 0);
  check int "loaded: the segments' pages" (4096 * Hashtbl.length pages)
    (Memory.resident_bytes loaded.Machine.mem)

(* The paged memory against a flat [Bytes] model: random operation
   sequences on a memory of three pages and twelve bytes (the last page
   partial) must return the same values, raise the same [Fault] kind at
   the same address, and leave the same contents. A second, fresh
   memory must still read as zero afterwards: a write through the
   shared zero page would show there. *)
let page = 4096
let model_size = (3 * page) + 12

type mem_op =
  | Load_word of int
  | Store_word of int * int
  | Load_byte of int
  | Store_byte of int * int
  | Write_bytes of int * string
  | Read_string of int
  | Digest of int * int
  | Fetch of int

let show_mem_op = function
  | Load_word a -> Printf.sprintf "load_word %d" a
  | Store_word (a, w) -> Printf.sprintf "store_word %d %#x" a w
  | Load_byte a -> Printf.sprintf "load_byte %d" a
  | Store_byte (a, v) -> Printf.sprintf "store_byte %d %#x" a v
  | Write_bytes (a, s) ->
      Printf.sprintf "write_bytes %d (%d bytes)" a (String.length s)
  | Read_string a -> Printf.sprintf "read_string %d" a
  | Digest (lo, len) -> Printf.sprintf "digest ~lo:%d ~len:%d" lo len
  | Fetch a -> Printf.sprintf "fetch %d" a

let model_fault addr kind = raise (Memory.Fault { addr; kind })

let model_check_word a kind =
  if a land 3 <> 0 then model_fault a "align";
  if a < 0 || a + 4 > model_size then model_fault a kind

let model_check_byte a kind =
  if a < 0 || a >= model_size then model_fault a kind

let model_word flat a =
  Int32.to_int (Bytes.get_int32_le flat a) land 0xFFFF_FFFF

let model_load_byte flat a =
  model_check_byte a "load";
  Char.code (Bytes.get flat a)

let model_read_string flat a =
  let buf = Buffer.create 16 in
  let rec go a =
    let c = model_load_byte flat a in
    if c <> 0 then begin
      if c >= 0x80 then model_fault a "string";
      Buffer.add_char buf (Char.chr c);
      go (a + 1)
    end
  in
  go a;
  Buffer.contents buf

(* FNV-1a, written out over the flat model *)
let model_digest flat lo len =
  if lo < 0 || len < 0 || lo + len > model_size then model_fault lo "digest";
  let h = ref 0x4CB2F29CE484222 in
  let mix v = h := (!h lxor v) * 0x100000001B3 land max_int in
  for i = 0 to (len / 4) - 1 do
    mix (model_word flat (lo + (4 * i)))
  done;
  for i = len / 4 * 4 to len - 1 do
    mix (Char.code (Bytes.get flat (lo + i)))
  done;
  !h

let run_model flat = function
  | Load_word a ->
      model_check_word a "load";
      string_of_int (model_word flat a)
  | Store_word (a, w) ->
      model_check_word a "store";
      Bytes.set_int32_le flat a (Int32.of_int w);
      ""
  | Load_byte a ->
      let u = model_load_byte flat a in
      Printf.sprintf "%d/%d" u (Word.sext8 u)
  | Store_byte (a, v) ->
      model_check_byte a "store";
      Bytes.set flat a (Char.chr v);
      ""
  | Write_bytes (a, s) ->
      if a < 0 || a + String.length s > model_size then model_fault a "store";
      Bytes.blit_string s 0 flat a (String.length s);
      ""
  | Read_string a -> model_read_string flat a
  | Digest (lo, len) -> string_of_int (model_digest flat lo len)
  | Fetch a ->
      model_check_word a "fetch";
      Inst.to_string (Decode.inst (model_word flat a))

let run_paged m = function
  | Load_word a -> string_of_int (Memory.load_word m a)
  | Store_word (a, w) ->
      Memory.store_word m a w;
      ""
  | Load_byte a ->
      Printf.sprintf "%d/%d" (Memory.load_byte_u m a) (Memory.load_byte_s m a)
  | Store_byte (a, v) ->
      Memory.store_byte m a v;
      ""
  | Write_bytes (a, s) ->
      Memory.write_bytes m a (Bytes.of_string s);
      ""
  | Read_string a -> Memory.read_string m a
  | Digest (lo, len) -> string_of_int (Memory.digest_range m ~lo ~len)
  | Fetch a -> Inst.to_string (Memory.fetch m a)

let outcome f =
  match f () with
  | v -> "= " ^ v
  | exception Memory.Fault { addr; kind } ->
      Printf.sprintf "fault %s at %d" kind addr

let qcheck_paged_vs_flat =
  let open QCheck in
  let gen_op =
    Gen.(
      let addr =
        frequency
          [
            (6, int_range 0 (model_size - 1));
            (* straddling each page boundary *)
            ( 3,
              map2 (fun p d -> (p * page) + d) (int_range 1 3) (int_range (-6) 6)
            );
            (1, int_range (model_size - 6) (model_size + 6));
            (1, int_range (-6) (-1));
          ]
      in
      let word_addr =
        frequency [ (8, map (fun a -> a land lnot 3) addr); (1, addr) ]
      in
      let byte =
        frequency
          [ (2, return 0); (5, int_range 1 0x7F); (1, int_range 0x80 0xFF) ]
      in
      let word =
        map4
          (fun a b c d -> a lor (b lsl 8) lor (c lsl 16) lor (d lsl 24))
          byte byte byte byte
      in
      let bytes n = string_size ~gen:(map Char.chr byte) (return n) in
      frequency
        [
          (3, map (fun a -> Load_word a) word_addr);
          (3, map2 (fun a w -> Store_word (a, w)) word_addr word);
          (2, map (fun a -> Load_byte a) addr);
          (3, map2 (fun a v -> Store_byte (a, v)) addr byte);
          ( 1,
            let* a = addr in
            let* n =
              frequency [ (3, int_range 0 16); (2, int_range 0 (page + 64)) ]
            in
            map (fun s -> Write_bytes (a, s)) (bytes n) );
          (2, map (fun a -> Read_string a) addr);
          ( 2,
            map2
              (fun lo len -> Digest (lo, len))
              addr
              (frequency
                 [
                   (4, int_range 0 64);
                   (3, int_range 0 ((2 * page) + 16));
                   (1, int_range (-4) (-1));
                 ])
          );
          (2, map (fun a -> Fetch a) word_addr);
        ])
  in
  let arb =
    make
      ~print:(fun ops -> String.concat "; " (List.map show_mem_op ops))
      ~shrink:Shrink.list
      Gen.(list_size (int_range 1 60) gen_op)
  in
  Test.make ~count:300 ~name:"paged memory matches a flat model" arb (fun ops ->
      let m = Memory.create ~size_bytes:model_size in
      let flat = Bytes.make model_size '\000' in
      List.iter
        (fun op ->
          let got = outcome (fun () -> run_paged m op)
          and want = outcome (fun () -> run_model flat op) in
          if got <> want then
            Test.fail_reportf "%s: paged %s, flat %s" (show_mem_op op) got want)
        ops;
      for a = 0 to model_size - 1 do
        if Memory.load_byte_u m a <> Char.code (Bytes.get flat a) then
          Test.fail_reportf "byte %d differs after the sequence" a
      done;
      let fresh = Memory.create ~size_bytes:model_size in
      for a = 0 to model_size - 1 do
        if Memory.load_byte_u fresh a <> 0 then
          Test.fail_reportf "fresh memory reads %d at %d"
            (Memory.load_byte_u fresh a) a
      done;
      Memory.resident_bytes fresh = 0)

(* ------------------------------------------------------------------ *)
(* Syscall *)

let test_checksum_mix () =
  let a = Syscall.mix_checksum 0 42 in
  let b = Syscall.mix_checksum a 43 in
  check bool "mix moves" true (a <> 0 && b <> a);
  check bool "32-bit" true (b >= 0 && b <= Word.mask)

(* ------------------------------------------------------------------ *)
(* Machine *)

let run_asm ?timing src =
  let p = Assembler.assemble_string src in
  let m = Loader.load ?timing p in
  Machine.run ~max_steps:2_000_000 m;
  m

let test_factorial_real () =
  let m =
    run_asm
      {|
main:   li   $t9, 2
        li   $a0, 10
        jal  fact
        move $a0, $v0
        li   $v0, 1
        syscall
        li   $a0, 10
        li   $v0, 2
        syscall
        halt

# v0 = fact(a0)
fact:   blt  $a0, $t9, fbase
        push $ra
        push $a0
        addi $a0, $a0, -1
        jal  fact
        pop  $a0
        pop  $ra
        mul  $v0, $v0, $a0
        ret
fbase:  li   $v0, 1
        ret
|}
  in
  check string "10! printed" "3628800\n" (Machine.output m);
  check (Alcotest.option int) "exit" (Some 0) (Machine.exit_code m)

let test_loop_and_memory () =
  let m =
    run_asm
      {|
        .data
acc:    .word 0
        .text
main:   la   $s0, acc
        li   $t0, 0          # i
        li   $t1, 100
loop:   lw   $t2, 0($s0)
        add  $t2, $t2, $t0
        sw   $t2, 0($s0)
        addi $t0, $t0, 1
        blt  $t0, $t1, loop
        lw   $a0, 0($s0)
        li   $v0, 1
        syscall
        halt
|}
  in
  check string "sum 0..99" "4950" (Machine.output m)

let test_syscalls () =
  let m =
    run_asm
      {|
        .data
msg:    .asciiz "ok\n"
        .text
main:   la   $a0, msg
        li   $v0, 3
        syscall
        li   $a0, -7
        li   $v0, 1
        syscall
        li   $a0, 1234
        li   $v0, 4
        syscall
        li   $a0, 3
        li   $v0, 5
        syscall
        halt
|}
  in
  check string "output" "ok\n-7" (Machine.output m);
  check (Alcotest.option int) "exit code" (Some 3) (Machine.exit_code m);
  check int "checksum" (Syscall.mix_checksum 0 1234) m.Machine.checksum

let test_indirect_branches_counted () =
  let m =
    run_asm
      {|
main:   la   $t0, f
        jalr $t0             # indirect call
        la   $t1, g
        jr   $t1             # indirect jump
g:      halt
f:      ret                  # return
|}
  in
  check int "icalls" 1 m.Machine.c.Machine.icalls;
  check int "returns" 1 m.Machine.c.Machine.returns;
  check int "ijumps" 1 m.Machine.c.Machine.ijumps;
  check int "ib total" 3 (Machine.ib_dynamic_count m)

let test_zero_register () =
  let m =
    run_asm
      {|
main:   li   $t0, 5
        add  $zero, $t0, $t0   # write to $zero is discarded
        move $a0, $zero
        li   $v0, 1
        syscall
        halt
|}
  in
  check string "zero stays zero" "0" (Machine.output m)

let test_illegal_raises () =
  let p = Assembler.assemble_string "main: halt" in
  let m = Loader.load p in
  (* overwrite the halt with a word that does not decode *)
  Memory.store_word m.Machine.mem p.Sdt_isa.Program.entry 0xFFFF_FFFF;
  check bool "illegal raises" true
    (match Machine.run m with exception Machine.Error _ -> true | _ -> false)

let test_trap_requires_handler () =
  let b = Builder.create () in
  let start = Builder.here b in
  Builder.emit b (Inst.Trap 3);
  Builder.halt b;
  let p = Builder.assemble b ~entry:start in
  let m = Loader.load p in
  check bool "unhandled trap raises" true
    (match Machine.run m with exception Machine.Error _ -> true | _ -> false)

let test_trap_handler_must_set_pc () =
  let b = Builder.create () in
  let start = Builder.here b in
  Builder.emit b (Inst.Trap 3);
  Builder.halt b;
  let p = Builder.assemble b ~entry:start in
  let m = Loader.load p in
  Machine.set_trap_handler m (fun _ ~code:_ ~trap_pc:_ -> () (* forgets pc *));
  check bool "poisoned pc faults" true
    (match Machine.run m with
    | exception Memory.Fault _ -> true
    | _ -> false)

let test_trap_handler_resumes () =
  let b = Builder.create () in
  let start = Builder.here b in
  Builder.emit b (Inst.Trap 7);
  let after = Builder.fresh_label b in
  Builder.place b after;
  Builder.emit b (Inst.Add (Reg.a0, Reg.t5, Reg.zero));
  Builder.emit b (Inst.Addi (Reg.v0, Reg.zero, 1));
  Builder.syscall b;
  Builder.halt b;
  let p = Builder.assemble b ~entry:start in
  let m = Loader.load p in
  Machine.set_trap_handler m (fun m ~code ~trap_pc ->
      Machine.set_reg m Reg.t5 (code * 10);
      m.Machine.pc <- trap_pc + 4);
  Machine.run m;
  check string "handler ran and resumed" "70" (Machine.output m)

let test_step_limit () =
  let m' = Assembler.assemble_string "main: j main" in
  let m = Loader.load m' in
  check bool "step limit raises" true
    (match Machine.run ~max_steps:1000 m with
    | exception Machine.Error _ -> true
    | _ -> false)

let test_native_timing_sane () =
  let timing = Timing.create Arch.arch_a in
  let m =
    run_asm ~timing
      {|
main:   li   $t0, 0
        li   $t1, 10000
loop:   addi $t0, $t0, 1
        blt  $t0, $t1, loop
        halt
|}
  in
  let instrs = m.Machine.c.Machine.instructions in
  let cycles = Timing.cycles timing in
  check bool "cycles >= instructions" true (cycles >= instrs);
  (* a predictable tight loop should be close to 1 cycle/instruction *)
  check bool "CPI < 2" true (cycles < 2 * instrs)

let test_word_ops_semantics () =
  let m =
    run_asm
      {|
main:   li   $t0, -8
        li   $t1, 3
        div  $t2, $t0, $t1     # -2
        rem  $t3, $t0, $t1     # -2
        mul  $t4, $t0, $t1     # -24
        sra  $t5, $t0, 1       # -4
        srl  $t6, $t0, 28      # 15
        add  $a0, $t2, $t3
        add  $a0, $a0, $t4
        add  $a0, $a0, $t5
        add  $a0, $a0, $t6
        li   $v0, 1
        syscall
        halt
|}
  in
  check string "signed arithmetic" (string_of_int (-2 - 2 - 24 - 4 + 15))
    (Machine.output m)

let test_unsigned_branches () =
  let m =
    run_asm
      {|
main:   li   $t0, -1          # 0xFFFFFFFF: huge unsigned
        li   $t1, 1
        li   $a0, 0
        bltu $t0, $t1, bad    # unsigned: not taken
        addi $a0, $a0, 1
        bgeu $t0, $t1, good   # unsigned: taken
bad:    li   $a0, 99
good:   li   $v0, 1
        syscall
        halt
|}
  in
  check string "unsigned compare semantics" "1" (Machine.output m)

let test_byte_sign_extension () =
  let m =
    run_asm
      {|
        .data
buf:    .byte 0x80, 0x7F
        .text
main:   la   $t0, buf
        lb   $t1, 0($t0)      # sign-extends to -128
        lbu  $t2, 0($t0)      # zero-extends to 128
        lb   $t3, 1($t0)      # 127 either way
        add  $a0, $t1, $t2    # -128 + 128 = 0
        add  $a0, $a0, $t3
        li   $v0, 1
        syscall
        halt
|}
  in
  check string "lb/lbu semantics" "127" (Machine.output m)

let test_sb_truncates () =
  let m =
    run_asm
      {|
        .data
buf:    .word 0
        .text
main:   la   $t0, buf
        li   $t1, 0x1FF       # store truncates to 0xFF
        sb   $t1, 0($t0)
        lbu  $a0, 0($t0)
        li   $v0, 1
        syscall
        halt
|}
  in
  check string "sb truncates to a byte" "255" (Machine.output m)

let test_jalr_rd_equals_rs () =
  (* jalr t0, t0: the target must be read before rd is written *)
  let m =
    run_asm
      {|
main:   la   $t0, f
        jalr $t0, $t0
        halt                  # unreachable: f exits
f:      li   $a0, 7
        li   $v0, 1
        syscall
        li   $a0, 0
        li   $v0, 5
        syscall
|}
  in
  check string "target read before link write" "7" (Machine.output m)

let test_unknown_syscall () =
  let p = Assembler.assemble_string "main: li $v0, 99
 syscall
 halt" in
  let m = Loader.load p in
  check bool "unknown syscall raises" true
    (match Machine.run m with
    | exception Syscall.Unknown 99 -> true
    | _ -> false)

let test_step_after_exit_is_noop () =
  let p = Assembler.assemble_string "main: halt" in
  let m = Loader.load p in
  Machine.run m;
  let before = m.Machine.c.Machine.instructions in
  Machine.step m;
  Machine.step m;
  check int "no instructions after exit" before m.Machine.c.Machine.instructions

let test_jump_region_semantics () =
  (* J targets are word indices within the 256MiB region of pc+4 *)
  let b = Builder.create () in
  let start = Builder.here b in
  let l = Builder.fresh_label b in
  Builder.j b l;
  Builder.halt b;  (* skipped *)
  Builder.place b l;
  Builder.emit b (Inst.Addi (Reg.a0, Reg.zero, 5));
  Builder.emit b (Inst.Addi (Reg.v0, Reg.zero, 1));
  Builder.syscall b;
  Builder.halt b;
  let p = Builder.assemble b ~entry:start in
  let m = Loader.load p in
  Machine.run m;
  check string "jump lands past halt" "5" (Machine.output m)

let () =
  Alcotest.run "sdt_machine"
    [
      ( "memory",
        [
          Alcotest.test_case "words and bytes" `Quick test_memory_words;
          Alcotest.test_case "faults" `Quick test_memory_faults;
          Alcotest.test_case "decode cache invalidation" `Quick
            test_memory_decode_cache_invalidation;
          Alcotest.test_case "strings" `Quick test_memory_read_string;
          Alcotest.test_case "pages allocated on first write" `Quick test_memory_lazy;
          QCheck_alcotest.to_alcotest qcheck_paged_vs_flat;
        ] );
      ("syscall", [ Alcotest.test_case "checksum mix" `Quick test_checksum_mix ]);
      ( "machine",
        [
          Alcotest.test_case "factorial" `Quick test_factorial_real;
          Alcotest.test_case "loop and memory" `Quick test_loop_and_memory;
          Alcotest.test_case "syscalls" `Quick test_syscalls;
          Alcotest.test_case "ib counters" `Quick test_indirect_branches_counted;
          Alcotest.test_case "zero register" `Quick test_zero_register;
          Alcotest.test_case "illegal instruction" `Quick test_illegal_raises;
          Alcotest.test_case "unhandled trap" `Quick test_trap_requires_handler;
          Alcotest.test_case "trap must set pc" `Quick test_trap_handler_must_set_pc;
          Alcotest.test_case "trap resume" `Quick test_trap_handler_resumes;
          Alcotest.test_case "step limit" `Quick test_step_limit;
          Alcotest.test_case "native timing" `Quick test_native_timing_sane;
          Alcotest.test_case "signed ops" `Quick test_word_ops_semantics;
          Alcotest.test_case "unsigned branches" `Quick test_unsigned_branches;
          Alcotest.test_case "byte sign extension" `Quick test_byte_sign_extension;
          Alcotest.test_case "sb truncation" `Quick test_sb_truncates;
          Alcotest.test_case "jalr rd=rs" `Quick test_jalr_rd_equals_rs;
          Alcotest.test_case "unknown syscall" `Quick test_unknown_syscall;
          Alcotest.test_case "step after exit" `Quick test_step_after_exit_is_noop;
          Alcotest.test_case "jump region" `Quick test_jump_region_semantics;
        ] );
    ]
