type 'a state = Ready of 'a | Pending

type 'a t = {
  m : Mutex.t;
  c : Condition.t;
  tbl : (string, 'a state) Hashtbl.t;
  namespace : string;
  mutable hits : int;
  mutable misses : int;
  mutable waits : int;
}

let create ~namespace =
  {
    m = Mutex.create ();
    c = Condition.create ();
    tbl = Hashtbl.create 256;
    namespace;
    hits = 0;
    misses = 0;
    waits = 0;
  }

let clear t =
  Mutex.lock t.m;
  Hashtbl.reset t.tbl;
  t.hits <- 0;
  t.misses <- 0;
  t.waits <- 0;
  Mutex.unlock t.m

let hits t = t.hits
let misses t = t.misses
let waits t = t.waits

let find t key compute =
  let t_find = Telemetry.start () in
  let ns = [ ("namespace", t.namespace) ] in
  let fin outcome =
    Telemetry.finish ~cat:"memo" ~name:"find"
      ~args:(("outcome", outcome) :: ns)
      t_find
  in
  Mutex.lock t.m;
  let rec get ~waited () =
    match Hashtbl.find_opt t.tbl key with
    | Some (Ready v) ->
        t.hits <- t.hits + 1;
        Mutex.unlock t.m;
        if waited then begin
          Telemetry.count ~labels:ns "memo.waits" 1;
          Telemetry.observe ~labels:ns "memo.wait_us"
            (Telemetry.elapsed_us t_find);
          fin "wait"
        end
        else begin
          Telemetry.count ~labels:ns "memo.hits" 1;
          fin "hit"
        end;
        v
    | Some Pending ->
        if not waited then t.waits <- t.waits + 1;
        Condition.wait t.c t.m;
        get ~waited:true ()
    | None -> (
        Hashtbl.replace t.tbl key Pending;
        Mutex.unlock t.m;
        let t_comp = Telemetry.start () in
        let outcome =
          match compute () with
          | v ->
              Telemetry.observe ~labels:ns "memo.compute_us"
                (Telemetry.elapsed_us t_comp);
              Ok v
          | exception e -> Error (e, Printexc.get_raw_backtrace ())
        in
        Mutex.lock t.m;
        (match outcome with
        | Ok v ->
            t.misses <- t.misses + 1;
            Hashtbl.replace t.tbl key (Ready v)
        | Error _ -> Hashtbl.remove t.tbl key);
        Condition.broadcast t.c;
        Mutex.unlock t.m;
        match outcome with
        | Ok v ->
            Telemetry.count ~labels:ns "memo.misses" 1;
            fin "compute";
            v
        | Error (e, bt) ->
            fin "error";
            Printexc.raise_with_backtrace e bt)
  in
  get ~waited:false ()
