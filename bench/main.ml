(* The experiment harness: regenerates every table and figure of the
   paper's evaluation (see DESIGN.md's experiment index). Host
   performance is measured end to end by bench/e2e/sdtbench.exe.

   Each experiment declares its measurement grid as data; the harness
   fans the not-yet-memoised cells out over a Domain worker pool
   (--jobs N), then assembles the tables from the in-process result
   memo — output is byte-identical for every N.

   Usage:
     dune exec bench/main.exe                 -- all experiments, ref size
     dune exec bench/main.exe -- --size test  -- fast smoke sizes
     dune exec bench/main.exe -- --only F2,F8 -- a subset
     dune exec bench/main.exe -- --jobs 4     -- parallel evaluation
     dune exec bench/main.exe -- --json out/  -- machine-readable results
*)

module Experiments = Sdt_harness.Experiments
module Table = Sdt_harness.Table
module Run = Sdt_harness.Run
module Meta = Sdt_harness.Meta
module Pool = Sdt_par.Pool
module Telemetry = Sdt_par.Telemetry
module Jsonw = Sdt_observe.Jsonw

type options = {
  mutable size : Experiments.size;
  mutable only : string list option;
  mutable csv_dir : string option;
  mutable json_dir : string option;
  mutable jobs : int;
  mutable exec_mode : Run.exec_mode;
  mutable telemetry : string option;
}

(* one row per option: flag, value placeholder, doc, handler — the
   usage string and the dispatch loop both derive from this table *)
let specs (o : options) =
  [
    ( "--size",
      "test|ref",
      "workload size (default ref)",
      fun v ->
        o.size <-
          (match v with
          | "test" -> `Test
          | "ref" -> `Ref
          | other ->
              Printf.eprintf "--size: expected test or ref, got %S\n" other;
              exit 2) );
    ( "--only",
      "IDS",
      "comma-separated experiment ids (e.g. T1,F2)",
      fun v -> o.only <- Some (String.split_on_char ',' v) );
    ( "--csv",
      "DIR",
      "write each table as CSV into DIR",
      fun v -> o.csv_dir <- Some v );
    ( "--json",
      "DIR",
      "write one BENCH_<id>.json per experiment into DIR",
      fun v -> o.json_dir <- Some v );
    ( "--jobs",
      "N",
      "worker domains for grid evaluation (0 = all cores; default 1; \
       clamped to the core count — oversubscribing domains on a \
       CPU-bound simulation only adds GC synchronisation)",
      fun v ->
        match int_of_string_opt v with
        | Some n when n >= 0 ->
            let cores = Pool.default_jobs () in
            if n > cores then
              Printf.eprintf "[--jobs %d clamped to %d core%s]\n%!" n cores
                (if cores = 1 then "" else "s");
            o.jobs <- (if n = 0 then cores else min n cores)
        | _ ->
            Printf.eprintf "--jobs: expected a non-negative integer, got %S\n" v;
            exit 2 );
    ( "--exec-mode",
      "step|block|block-nochain|trace",
      "interpreter loop for simulated cells (default SDT_EXEC_MODE, else \
       block; results are bit-identical in every mode)",
      fun v ->
        o.exec_mode <-
          (match Run.exec_mode_of_string v with
          | Ok m -> m
          | Error msg ->
              Printf.eprintf "--exec-mode: %s\n" msg;
              exit 2) );
    ( "--telemetry",
      "DIR",
      "record harness telemetry and write DIR/trace.json (Chrome \
       trace_event, one track per worker domain), DIR/METRICS.json and \
       DIR/RUN_META.json on exit",
      fun v -> o.telemetry <- Some v );
  ]

let usage specs =
  let b = Buffer.create 256 in
  Buffer.add_string b "usage: bench [options]\n";
  List.iter
    (fun (flag, value, doc, _) ->
      Buffer.add_string b
        (Printf.sprintf "  %-22s %s\n" (flag ^ " " ^ value) doc))
    specs;
  Buffer.contents b

let parse_args () =
  let o =
    {
      size = `Ref;
      only = None;
      csv_dir = None;
      json_dir = None;
      jobs = 1;
      exec_mode = Run.exec_mode ();
      telemetry = None;
    }
  in
  let specs = specs o in
  let rec go = function
    | [] -> ()
    | arg :: rest -> (
        match List.find_opt (fun (flag, _, _, _) -> flag = arg) specs with
        | Some (flag, value, _, handle) -> (
            match rest with
            | v :: rest ->
                handle v;
                go rest
            | [] ->
                Printf.eprintf "%s needs a %s value\n%s" flag value
                  (usage specs);
                exit 2)
        | None ->
            Printf.eprintf "unknown argument %S\n%s" arg (usage specs);
            exit 2)
  in
  go (List.tl (Array.to_list Sys.argv));
  o

let selected only =
  match only with
  | None -> Experiments.experiments
  | Some ids ->
      List.filter_map
        (fun id ->
          match Experiments.find (String.trim id) with
          | Some e -> Some e
          | None ->
              Printf.eprintf "unknown experiment id %S; valid ids: %s\n" id
                (String.concat ", "
                   (List.map
                      (fun (e : Experiments.experiment) -> e.Experiments.id)
                      Experiments.experiments));
              exit 2)
        ids

let table_json (t : Table.t) =
  Jsonw.Obj
    [
      ("title", Jsonw.Str t.Table.title);
      ("note", Jsonw.Str t.Table.note);
      ("headers", Jsonw.List (List.map (fun h -> Jsonw.Str h) t.Table.headers));
      ( "rows",
        Jsonw.List
          (List.map
             (fun r -> Jsonw.List (List.map (fun c -> Jsonw.Str c) r))
             t.Table.rows) );
    ]

type cell_report = {
  r_cells : int;  (** unique grid cells *)
  r_simulated : int;  (** cells actually simulated this experiment *)
  r_instructions : int;  (** guest instructions the simulated cells ran *)
  r_mips : float;  (** r_instructions / wall seconds, in millions *)
  r_counters : (string * int) list;  (** {!Run.counters} deltas *)
}

let experiment_json (e : Experiments.experiment) size ~jobs seconds
    (r : cell_report) tables =
  Jsonw.Obj
    ([
       ("id", Jsonw.Str e.Experiments.id);
       ("title", Jsonw.Str e.Experiments.title);
       ("size", Jsonw.Str (match size with `Test -> "test" | `Ref -> "ref"));
       ("jobs", Jsonw.Int jobs);
       ("seconds", Jsonw.Float seconds);
       ("cells", Jsonw.Int r.r_cells);
       ("simulated", Jsonw.Int r.r_simulated);
       ("cache_hits", Jsonw.Int (r.r_cells - r.r_simulated));
       ("instructions", Jsonw.Int r.r_instructions);
       ("mips", Jsonw.Float r.r_mips);
     ]
    @ List.map (fun (k, v) -> (k, Jsonw.Int v)) r.r_counters
    @ [ ("tables", Jsonw.List (List.map table_json tables)) ])

let now = Unix.gettimeofday

(* Evaluate the grid through the pool, then assemble the tables (all
   memo lookups by construction). A cell is a "cache hit" when the
   memo already held it from an earlier experiment in this run. *)
let run_one pool size (e : Experiments.experiment) =
  let s0 = (Run.cache_stats ()).Run.simulated in
  let i0 = Run.simulated_instructions () in
  let k0 = Run.counters () in
  let t0 = now () in
  let cells = Experiments.evaluate ~pool size e in
  let tables = e.Experiments.run size in
  let seconds = now () -. t0 in
  let instructions = Run.simulated_instructions () - i0 in
  ( tables,
    seconds,
    {
      r_cells = cells;
      r_simulated = (Run.cache_stats ()).Run.simulated - s0;
      r_instructions = instructions;
      r_mips = float_of_int instructions /. Float.max seconds 1e-9 /. 1e6;
      r_counters =
        List.map2 (fun (k, a) (_, b) -> (k, b - a)) k0 (Run.counters ());
    } )

let rec mkdir_p dir =
  if dir <> "" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ()
  end

(* Every output directory is created, parents included, before any
   simulation: one that cannot be a directory stops the harness like a
   bad flag (one line, exit 2) instead of after the experiments ran. *)
let prepare_dir flag dir =
  match mkdir_p dir with
  | () when Sys.is_directory dir -> ()
  | () ->
      Printf.eprintf "%s: %s is not a directory\n" flag dir;
      exit 2
  | exception Sys_error msg ->
      Printf.eprintf "%s: cannot create %s: %s\n" flag dir msg;
      exit 2

let run_experiments pool size csv_dir json_dir exps =
  let total_cells = ref 0 and total_sim = ref 0 and t_start = now () in
  List.iter
    (fun (e : Experiments.experiment) ->
      let tables, seconds, r = run_one pool size e in
      total_cells := !total_cells + r.r_cells;
      total_sim := !total_sim + r.r_simulated;
      List.iter Table.print tables;
      Option.iter
        (fun dir ->
          List.iteri
            (fun i t ->
              let path =
                Filename.concat dir
                  (Printf.sprintf "%s%s.csv" e.Experiments.id
                     (if i = 0 then "" else Printf.sprintf "_%d" i))
              in
              Out_channel.with_open_text path (fun oc ->
                  Out_channel.output_string oc (Table.to_csv t)))
            tables)
        csv_dir;
      Option.iter
        (fun dir ->
          let path =
            Filename.concat dir (Printf.sprintf "BENCH_%s.json" e.Experiments.id)
          in
          Out_channel.with_open_text path (fun oc ->
              Jsonw.to_channel oc
                (experiment_json e size ~jobs:(Pool.jobs pool) seconds r tables);
              output_char oc '\n'))
        json_dir;
      Printf.printf
        "[%s: %s — %.1fs, %d cells: %d simulated, %d cached, %d Minstrs, %.1f \
         MIPS]\n\n\
         %!"
        e.Experiments.id e.Experiments.title seconds r.r_cells r.r_simulated
        (r.r_cells - r.r_simulated)
        (r.r_instructions / 1_000_000)
        r.r_mips)
    exps;
  Printf.printf
    "== grid total: %.1fs wall, %d jobs, %d cells, %d simulated, %d served \
     from cache ==\n\n%!"
    (now () -. t_start) (Pool.jobs pool) !total_cells !total_sim
    (!total_cells - !total_sim)

(* --telemetry DIR: install the global sink before any work and dump
   the trace on exit. Registered with at_exit so the files land even
   when a run fails. *)
let dump_telemetry (o : options) dir sink =
  Out_channel.with_open_text (Filename.concat dir "trace.json") (fun oc ->
      Telemetry.write_chrome oc sink);
  Out_channel.with_open_text (Filename.concat dir "METRICS.json") (fun oc ->
      Jsonw.to_channel oc (Telemetry.metrics_json sink);
      output_char oc '\n');
  Out_channel.with_open_text (Filename.concat dir "RUN_META.json") (fun oc ->
      Jsonw.to_channel oc
        (Meta.to_json ~jobs:o.jobs ~exec_mode:(Run.exec_mode_name o.exec_mode)
           ~cache:"memory"
           ~extra:
             [
               ( "size",
                 Jsonw.Str (match o.size with `Test -> "test" | `Ref -> "ref")
               );
               ("trace_events", Jsonw.Int (Telemetry.events sink));
               ( "ib_mechanisms",
                 let swept, a = Experiments.ib_mech_sweep () in
                 Meta.ib_mechanisms_json ~swept a );
             ]
           ());
      output_char oc '\n');
  Printf.printf "[telemetry: %d events -> %s]\n%!" (Telemetry.events sink) dir

let () =
  (* A grid run churns through hundreds of machines, each allocating
     megabytes of block closures and decode chunks that die with the
     cell: the default 256k-word minor heap forces constant minor
     collections and promotions. 8M words (64 MB) lets a cell's
     short-lived garbage die young — measured ~10% off the cold-serial
     full grid on the reference container; set before any domain
     spawns so workers inherit it. *)
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = 8 * 1024 * 1024 };
  let o = parse_args () in
  Option.iter (prepare_dir "--csv") o.csv_dir;
  Option.iter (prepare_dir "--json") o.json_dir;
  Option.iter (prepare_dir "--telemetry") o.telemetry;
  let exps = selected o.only in
  Run.set_exec_mode o.exec_mode;
  (match o.telemetry with
  | Some dir ->
      let sink = Telemetry.create () in
      Telemetry.install sink;
      at_exit (fun () -> dump_telemetry o dir sink)
  | None -> ());
  Printf.printf
    "SDT indirect-branch mechanism evaluation (%s size, %d experiments, %d \
     jobs)\n\n%!"
    (match o.size with `Test -> "test" | `Ref -> "ref")
    (List.length exps) o.jobs;
  Pool.with_pool ~jobs:o.jobs (fun pool ->
      run_experiments pool o.size o.csv_dir o.json_dir exps)
