package obs

// MaxSpanAttrs exposes the per-span attribute cap to the external tests.
const MaxSpanAttrs = maxSpanAttrs
