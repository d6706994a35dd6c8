let mix z =
  let z = (z * 0x1E3779B97F4A7C15) + 0x165667B19E3779F9 in
  let z = (z lxor (z lsr 29)) * 0x2545F4914F6CDD1D in
  let z = (z lxor (z lsr 31)) * 0x27D4EB2F165667C5 in
  (z lxor (z lsr 30)) land max_int

let combine h x = mix ((h * 0x100000001B3) lxor x)
let combine_float h f =
  combine h (Int64.to_int (Int64.bits_of_float f) land max_int)

let string s =
  let h = ref (mix (String.length s)) in
  String.iter (fun c -> h := combine !h (Char.code c)) s;
  !h
