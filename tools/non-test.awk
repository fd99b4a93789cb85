# The repo's one "non-test line of Rust" rule, shared by tools/loc.sh
# and tools/one-codec.sh. Prints every surviving line of the given
# files as `file:line:text`.
#
# Dropped: blank lines, comment-only lines (first non-blank characters
# are `//`), and everything from a top-level `#[cfg(test)]` + `mod … {`
# to its closing `}` in column 0 (the tree is rustfmt-formatted, so
# that is the module's end).
FNR == 1 { pending = 0; skipping = 0 }
skipping { if ($0 ~ /^}/) skipping = 0; next }
/^#\[cfg\(test\)\]/ { pending = 1; next }
pending && /^(pub )?mod [a-z_0-9]+ \{/ { pending = 0; skipping = 1; next }
pending && /^#\[/ { next }
{ pending = 0 }
/^[[:space:]]*$/ { next }
/^[[:space:]]*\/\// { next }
{ print FILENAME ":" FNR ":" $0 }
