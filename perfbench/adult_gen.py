"""Adult-shaped census extract, generated from a seed.

Writes the 12 input columns that ``src/relfair/configs/adult.yaml`` declares,
plus its label ``income`` and sensitive column ``sex``, so the builtin
``adult`` config loads the file unchanged.  Shape follows the UCI extract:
5 continuous and 7 categorical columns at the census cardinalities (about 100
one-hot columns once encoded), about 7 % of rows with ``?`` in workclass,
occupation or native-country, and ``sex`` both biasing ``income`` and leaking
into ``marital-status`` and ``relationship``.  Every category has enough mass
to appear in any training split, so the encoded width barely moves with the
seed.
"""

import numpy as np
from scipy.special import expit

N_ROWS = 45_000

HEADER = (
    "age", "workclass", "education", "education-num", "marital-status",
    "occupation", "relationship", "race", "sex", "capital-gain",
    "capital-loss", "hours-per-week", "native-country", "income",
)

WORKCLASS = {
    "Private": 0.70, "Self-emp-not-inc": 0.08, "Self-emp-inc": 0.035,
    "Federal-gov": 0.03, "Local-gov": 0.065, "State-gov": 0.04,
    "Without-pay": 0.01, "Never-worked": 0.01,
}
# name -> (share, education-num)
EDUCATION = {
    "Preschool": (0.004, 1), "1st-4th": (0.006, 2), "5th-6th": (0.011, 3),
    "7th-8th": (0.02, 4), "9th": (0.016, 5), "10th": (0.028, 6),
    "11th": (0.036, 7), "12th": (0.013, 8), "HS-grad": (0.32, 9),
    "Some-college": (0.22, 10), "Assoc-voc": (0.042, 11),
    "Assoc-acdm": (0.033, 12), "Bachelors": (0.165, 13), "Masters": (0.055, 14),
    "Prof-school": (0.018, 15), "Doctorate": (0.013, 16),
}
# marital status -> (share among men, share among women)
MARITAL = {
    "Married-civ-spouse": (0.62, 0.15), "Never-married": (0.26, 0.42),
    "Divorced": (0.08, 0.24), "Separated": (0.015, 0.06),
    "Widowed": (0.01, 0.09), "Married-spouse-absent": (0.01, 0.035),
    "Married-AF-spouse": (0.005, 0.005),
}
OCCUPATION = {
    "Tech-support": 0.03, "Craft-repair": 0.13, "Other-service": 0.10,
    "Sales": 0.12, "Exec-managerial": 0.13, "Prof-specialty": 0.13,
    "Handlers-cleaners": 0.045, "Machine-op-inspct": 0.065,
    "Adm-clerical": 0.12, "Farming-fishing": 0.03, "Transport-moving": 0.05,
    "Priv-house-serv": 0.01, "Protective-serv": 0.02, "Armed-Forces": 0.005,
}
RACE = {
    "White": 0.855, "Black": 0.096, "Asian-Pac-Islander": 0.031,
    "Amer-Indian-Eskimo": 0.01, "Other": 0.008,
}
COUNTRIES = (
    "Mexico", "Philippines", "Germany", "Puerto-Rico", "Canada",
    "El-Salvador", "India", "Cuba", "England", "China", "South", "Jamaica",
    "Italy", "Dominican-Republic", "Japan", "Guatemala", "Poland", "Vietnam",
    "Columbia", "Haiti", "Portugal", "Taiwan", "Iran", "Greece", "Nicaragua",
    "Peru", "Ecuador", "France", "Ireland", "Hong", "Thailand", "Cambodia",
    "Trinadad&Tobago", "Yugoslavia", "Outlying-US(Guam-USVI-etc)", "Laos",
    "Scotland", "Honduras", "Hungary", "Holand-Netherlands",
)
# United-States takes 0.9; the 40 others split the rest evenly
NATIVE_COUNTRY = {"United-States": 0.9, **{c: 0.1 / len(COUNTRIES) for c in COUNTRIES}}

MISSING_WORK = 0.055  # workclass and occupation both "?"
MISSING_COUNTRY = 0.018


def _pick(rng, table, n):
    """Sample n category names from a {name: share} table."""
    names = np.array(list(table))
    p = np.array(list(table.values()), dtype=float)
    return names[rng.choice(len(names), size=n, p=p / p.sum())]


def generate(seed, n=N_ROWS):
    """Columns keyed by HEADER name, as string arrays ready to write."""
    rng = np.random.default_rng(seed)
    female = rng.uniform(size=n) < 0.33
    age = np.clip(np.round(rng.gamma(6.0, 6.5, size=n) + 17), 17, 90)

    edu_names = np.array(list(EDUCATION))
    edu_p = np.array([v[0] for v in EDUCATION.values()])
    edu_idx = rng.choice(len(edu_names), size=n, p=edu_p / edu_p.sum())
    edu_num = np.array([v[1] for v in EDUCATION.values()])[edu_idx]

    mar_names = np.array(list(MARITAL))
    men, women = (np.array([v[i] for v in MARITAL.values()]) for i in (0, 1))
    u = rng.uniform(size=n)
    mar_idx = np.where(
        female,
        np.searchsorted(np.cumsum(women / women.sum()), u),
        np.searchsorted(np.cumsum(men / men.sum()), u),
    ).clip(max=len(mar_names) - 1)
    marital = mar_names[mar_idx]
    married = np.char.startswith(marital, "Married")

    # relationship follows marital status and sex, as in the census
    young = age < 25
    unmarried_share = np.where(female, 0.5, 0.15)
    rel = np.where(
        rng.uniform(size=n) < unmarried_share, "Unmarried", "Not-in-family"
    ).astype(object)
    rel[married & female] = "Wife"
    rel[married & ~female] = "Husband"
    rel[~married & young & (rng.uniform(size=n) < 0.7)] = "Own-child"
    rel[rng.uniform(size=n) < 0.03] = "Other-relative"
    relationship = rel.astype(str)

    hours = np.clip(np.round(rng.normal(42 - 6 * female, 11)), 1, 99)
    gain = np.where(
        rng.uniform(size=n) < 0.08,
        np.round(np.exp(rng.normal(8.5, 1.0, size=n))), 0.0,
    )
    loss = np.where(
        rng.uniform(size=n) < 0.045,
        np.round(rng.normal(1900, 350, size=n)).clip(min=150), 0.0,
    )

    logit = (
        -7.2 + 0.35 * edu_num + 0.035 * (age - 17) + 0.03 * (hours - 40)
        + 1.2 * married + 1.6 * (gain > 0) + 0.6 * (loss > 0)
        - 0.9 * female
    )
    income = np.where(rng.uniform(size=n) < expit(logit), ">50K", "<=50K")

    workclass = _pick(rng, WORKCLASS, n).astype(object)
    occupation = _pick(rng, OCCUPATION, n).astype(object)
    country = _pick(rng, NATIVE_COUNTRY, n).astype(object)
    gap = rng.uniform(size=n) < MISSING_WORK
    workclass[gap] = "?"
    occupation[gap] = "?"
    country[rng.uniform(size=n) < MISSING_COUNTRY] = "?"

    def ints(a):
        return a.astype(np.int64).astype(str)

    return {
        "age": ints(age),
        "workclass": workclass.astype(str),
        "education": edu_names[edu_idx],
        "education-num": ints(edu_num),
        "marital-status": marital,
        "occupation": occupation.astype(str),
        "relationship": relationship,
        "race": _pick(rng, RACE, n),
        "sex": np.where(female, "Female", "Male"),
        "capital-gain": ints(gain),
        "capital-loss": ints(loss),
        "hours-per-week": ints(hours),
        "native-country": country.astype(str),
        "income": income,
    }


def write_csv(path, seed, n=N_ROWS):
    cols = generate(seed, n)
    with open(path, "w") as fh:
        fh.write(",".join(HEADER) + "\n")
        for row in zip(*(cols[h].tolist() for h in HEADER)):
            fh.write(",".join(row) + "\n")
