(* The SDT as a security monitor — the use case the paper's
   introduction leads with. The SDT owns every control transfer, so it
   can enforce a control-flow policy: under landing-pad CFI
   ([--cfi landing_pad]) an indirect branch may only enter a
   word-aligned address in the application's text segment. Validation
   happens on the translator's miss path — the IB mechanisms then cache
   only *validated* targets, so hit paths carry no check.

   The example runs a victim program whose function-pointer table is
   "corrupted" to point into its data segment, then shows (a) the
   unprotected SDT following the rogue pointer and (b) the landing-pad
   policy stopping it, and finally measures the policy's cycle cost on
   a legitimate workload.

   Run with: dune exec examples/cfi_hijack.exe *)

module Arch = Sdt_march.Arch
module Timing = Sdt_march.Timing
module Assembler = Sdt_isa.Assembler
module Config = Sdt_core.Config
module Cfi = Sdt_core.Cfi
module Runtime = Sdt_core.Runtime
module Suite = Sdt_workloads.Suite

let victim =
  {|
# a dispatcher whose table gets "corrupted" with a pointer into .data
        .data
table:  .word 0, 0
# "shellcode": these data words decode to
#   li $a0,'!' ; li $v0,2 ; syscall ; li $a0,1 ; li $v0,5 ; syscall
evil:   .word 0x20040021, 0x20020002, 0x0000000c
        .word 0x20040001, 0x20020005, 0x0000000c
        .text
main:   la   $t0, table
        la   $t1, ok               # entry 0: legitimate
        sw   $t1, 0($t0)
        la   $t1, evil             # entry 1: hijacked!
        sw   $t1, 4($t0)
        # first dispatch: fine
        lw   $t2, 0($t0)
        jalr $t2
        # second dispatch: follows the corrupted entry
        lw   $t2, 4($t0)
        jalr $t2
        halt

ok:     li   $a0, 'k'
        li   $v0, 2
        syscall
        ret
|}

let () =
  let program = Assembler.assemble_string victim in

  let cfg cfi = { Config.default with cfi } in

  print_endline "1. unprotected SDT follows the corrupted pointer:";
  let rt = Runtime.create ~cfg:(cfg Config.Cfi_none) ~arch:Arch.arch_a program in
  (match Runtime.run ~max_steps:100_000 rt with
  | () ->
      Printf.printf
        "   ...the \"shellcode\" in .data ran: output %S, exit code %s\n"
        (Sdt_machine.Machine.output (Runtime.machine rt))
        (match Sdt_machine.Machine.exit_code (Runtime.machine rt) with
        | Some c -> string_of_int c
        | None -> "-")
  | exception e ->
      Printf.printf "   ...crashed while executing data: %s\n"
        (Printexc.to_string e));

  print_endline "\n2. landing-pad CFI stops it at the transfer:";
  let rt =
    Runtime.create ~cfg:(cfg Config.Cfi_landing_pad) ~arch:Arch.arch_a program
  in
  (match Runtime.run ~max_steps:100_000 rt with
  | () -> print_endline "   BUG: hijack not caught"
  | exception Cfi.Violation { target; _ } ->
      Printf.printf
        "   Cfi.Violation: transfer to 0x%x (the data segment) blocked \
         before the shellcode could run\n"
        target
  | exception e -> Printf.printf "   unexpected: %s\n" (Printexc.to_string e));

  (* enforcement lives on miss paths: compare cycles on a real
     workload *)
  let e = Option.get (Suite.find "vortex") in
  let cycles cfi =
    let timing = Timing.create Arch.arch_a in
    let rt =
      Runtime.create ~cfg:(cfg cfi) ~arch:Arch.arch_a ~timing
        (Suite.program e `Test)
    in
    Runtime.run rt;
    Timing.cycles timing
  in
  let off = cycles Config.Cfi_none and on_ = cycles Config.Cfi_landing_pad in
  Printf.printf
    "\n3. enforcement cost on vortex: %d cycles unprotected, %d under \
     landing-pad CFI (%+.3f%%)\n"
    off on_
    (100.0 *. (float_of_int on_ -. float_of_int off) /. float_of_int off)
