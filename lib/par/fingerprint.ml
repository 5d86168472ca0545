module Arch = Sdt_march.Arch
module Config = Sdt_core.Config

let of_value v =
  Digest.to_hex (Digest.string (Marshal.to_string v [ Marshal.No_sharing ]))

let cell ~key ~arch ~cfg = of_value (key, arch, cfg)
