(* via_disasm: disassemble a VIA image file. *)

open Cmdliner

(* Like via_run's bad input: an unreadable or malformed image ends the
   run with one line and exit 2. *)
let run input =
  match Sdt_isa.Image.load input with
  | exception Sdt_isa.Image.Error msg ->
      Printf.eprintf "%s: %s\n" input msg;
      2
  | exception Sys_error msg ->
      prerr_endline msg;
      2
  | program ->
      print_string (Sdt_isa.Disasm.listing program);
      0

let input =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE"
       ~doc:"Image produced by via_asm.")

let cmd =
  Cmd.v
    (Cmd.info "via_disasm" ~doc:"disassemble a VIA image"
       ~exits:
         (Cmd.Exit.info 2 ~doc:"on an unreadable or malformed image file."
         :: Cmd.Exit.defaults))
    Term.(const run $ input)

let () = exit (Cmd.eval' cmd)
