"""Feature-space walkthrough: 27 primary -> +17 derived -> 13 selected columns.

    python demos/02_feature_space.py
"""

from regio_forecast import (
    DEFAULT_SELECTED_FEATURES,
    SyntheticSpec,
    compute_derived_features,
    concat_features,
    generate_regions,
    score_relevance,
    select_features,
)

ds = generate_regions(SyntheticSpec(regions=1, rows=362, seed=4))[0]
primary = ds.feature_matrix()
print(f"primary matrix: {primary.values.shape}")

derived = compute_derived_features(primary)
print(f"derived matrix: {derived.values.shape}")
for code, value in zip(derived.column_codes[:6], derived.values[0, :6]):
    print(f"  day 0 {code} = {value:.4f}")

full = concat_features(primary, derived)
print(f"concatenated:   {full.values.shape}")

# Rank every column against the four targets by normalized |rank correlation|.
report = score_relevance(full, ds.targets)
print("\ntop five features for infections:")
for code in report.ranking("infections")[:5]:
    print(f"  {code}: {100 * report.score(code, 'infections'):.0f}%")

selected = select_features(full, list(DEFAULT_SELECTED_FEATURES))
print(f"\ndefault model space: {selected.values.shape[1]} columns")
print("  ", ", ".join(selected.column_codes))

ranked = select_features(full, report=report, top_n=13)
print("ranked-mode alternative (top 13 by mean score):")
print("  ", ", ".join(ranked.column_codes))
