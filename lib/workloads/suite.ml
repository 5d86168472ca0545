module Program = Sdt_isa.Program

type entry = {
  name : string;
  description : string;
  build : size:int -> Program.t;
  test_size : int;
  ref_size : int;
}

let entry name description build test_size ref_size =
  { name; description; build; test_size; ref_size }

let all =
  [
    entry W_gzip.name W_gzip.description W_gzip.build 800 7_000;
    entry W_vpr.name W_vpr.description W_vpr.build 40_000 600_000;
    entry W_gcc.name W_gcc.description W_gcc.build 10_000 150_000;
    entry W_mcf.name W_mcf.description W_mcf.build 1_200 15_000;
    entry W_crafty.name W_crafty.description W_crafty.build 8_000 70_000;
    entry W_parser.name W_parser.description W_parser.build 6_000 30_000;
    entry W_eon.name W_eon.description W_eon.build 25_000 350_000;
    entry W_perlbmk.name W_perlbmk.description W_perlbmk.build 2_400 20_000;
    entry W_gap.name W_gap.description W_gap.build 8_000 70_000;
    entry W_vortex.name W_vortex.description W_vortex.build 10_000 55_000;
    entry W_bzip2.name W_bzip2.description W_bzip2.build 1_500 20_000;
    entry W_twolf.name W_twolf.description W_twolf.build 40_000 500_000;
    (* two SPEC CFP2000 stand-ins: numeric codes whose near-zero IB
       density anchors the "FP is barely affected" end of the spectrum *)
    entry W_art.name W_art.description W_art.build 50_000 450_000;
    entry W_equake.name W_equake.description W_equake.build 50_000 450_000;
  ]

(* registered by name but kept out of [all]: the F1-F11 grids (and
   the benchmark's table digests) sweep [all], and a new suite member
   would silently reshape every geomean *)
let extra = [ entry W_sfi.name W_sfi.description W_sfi.build 3_000 25_000 ]

let find name = List.find_opt (fun e -> e.name = name) (all @ extra)
let names = List.map (fun e -> e.name) (all @ extra)

let program e size =
  match size with
  | `Test -> e.build ~size:e.test_size
  | `Ref -> e.build ~size:e.ref_size
