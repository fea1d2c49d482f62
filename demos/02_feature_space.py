"""Feature-space walkthrough: 27 primary + 17 derived codes -> 13 selected columns.

    python demos/02_feature_space.py
"""

from regio_forecast import (
    DEFAULT_SELECTED_FEATURES,
    SyntheticSpec,
    generate_regions,
    score_relevance,
)
from regio_forecast.features import DERIVED_FEATURE_CODES, PRIMARY_FEATURE_CODES

ds = generate_regions(SyntheticSpec(regions=1, rows=362, seed=4))[0]
print(f"primary columns: {ds.features.shape}")

# A derived column is evaluated from the primary ones only when it is named.
derived = ds.columns(DERIVED_FEATURE_CODES)
print(f"derived columns: {derived.shape}")
for code, value in zip(DERIVED_FEATURE_CODES[:6], derived[0, :6]):
    print(f"  day 0 {code} = {value:.4f}")

codes = PRIMARY_FEATURE_CODES + DERIVED_FEATURE_CODES
full = ds.columns(codes)
print(f"all 44 codes:    {full.shape}")

# Rank every column against the four targets by normalized |rank correlation|.
report = score_relevance(full, codes, ds.targets)
print("\ntop five features for infections:")
for code in report.ranking("infections")[:5]:
    print(f"  {code}: {100 * report.score(code, 'infections'):.0f}%")

selected = ds.columns(DEFAULT_SELECTED_FEATURES)
print(f"\ndefault model space: {selected.shape[1]} primary columns, none derived")
print("  ", ", ".join(DEFAULT_SELECTED_FEATURES))

print("ranked-mode alternative (top 13 by mean score):")
print("  ", ", ".join(report.top(13)))
