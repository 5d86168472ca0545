(* via_asm: assemble VIA assembly source to an image file. *)

open Cmdliner

(* Like via_run's bad input: an unreadable or malformed source, or an
   image that cannot be written, ends the run with one line and
   exit 2. *)
let bad fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline msg;
      2)
    fmt

let run input output listing =
  match Sdt_isa.Assembler.assemble_file input with
  | exception Sdt_isa.Assembler.Error { line; msg } ->
      bad "%s:%d: %s" input line msg
  | exception Sys_error msg -> bad "%s" msg
  | program -> (
      let out =
        match output with
        | Some o -> o
        | None -> Filename.remove_extension input ^ ".img"
      in
      match Sdt_isa.Image.save out program with
      | exception Sys_error msg -> bad "cannot write %s" msg
      | () ->
          if listing then print_string (Sdt_isa.Disasm.listing program);
          Printf.printf "wrote %s (%d bytes, entry 0x%x)\n" out
            (Sdt_isa.Program.size_bytes program)
            program.Sdt_isa.Program.entry;
          0)

let input =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE.via"
       ~doc:"Assembly source.")

let output =
  Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"OUT"
       ~doc:"Output image path (default: FILE.img).")

let listing =
  Arg.(value & flag & info [ "l"; "listing" ] ~doc:"Print a disassembly listing.")

let cmd =
  Cmd.v
    (Cmd.info "via_asm" ~doc:"assemble VIA source to an image"
       ~exits:
         (Cmd.Exit.info 2
            ~doc:
              "on an unreadable or malformed source file, or an image that \
               cannot be written."
         :: Cmd.Exit.defaults))
    Term.(const run $ input $ output $ listing)

let () = exit (Cmd.eval' cmd)
