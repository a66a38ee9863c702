"""A built-in Foursquare-style venue-category taxonomy.

The hierarchy mirrors the Foursquare category tree that the NYC check-in
dataset carries, using the root labels the paper itself uses in its examples
("Eatery", "Shops", ...).  Leaf categories are the labels attached to venues;
root categories are what the crowd view aggregates by.

The tree is intentionally paper-shaped rather than an exhaustive Foursquare
dump: every root has enough leaves to exercise abstraction (the "three Thai
restaurants → one pattern" motivation), and mid-level nodes exist where the
abstraction ablation needs them (e.g. Eatery → Asian Restaurant → Thai
Restaurant).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from .category import CategoryTree

__all__ = ["build_default_taxonomy", "DEFAULT_TAXONOMY_SPEC", "root_names"]

# root name -> {mid-level name or None -> [leaf names]}
# ``None`` keys attach leaves directly to the root.
DEFAULT_TAXONOMY_SPEC: Dict[str, Dict[str, Tuple[str, ...]]] = {
    "Eatery": {
        "Asian Restaurant": (
            "Thai Restaurant",
            "Chinese Restaurant",
            "Japanese Restaurant",
            "Korean Restaurant",
            "Vietnamese Restaurant",
            "Indian Restaurant",
        ),
        "Western Restaurant": (
            "Italian Restaurant",
            "French Restaurant",
            "American Restaurant",
            "Mexican Restaurant",
            "Steakhouse",
        ),
        "Casual Food": (
            "Pizza Place",
            "Burger Joint",
            "Sandwich Place",
            "Deli",
            "Food Truck",
            "Fast Food Restaurant",
            "Bakery",
        ),
        "Cafe": (
            "Coffee Shop",
            "Tea Room",
            "Dessert Shop",
            "Ice Cream Shop",
        ),
    },
    "Shops": {
        "Grocery": (
            "Supermarket",
            "Convenience Store",
            "Farmers Market",
            "Liquor Store",
        ),
        "Retail": (
            "Clothing Store",
            "Shoe Store",
            "Department Store",
            "Electronics Store",
            "Bookstore",
            "Furniture Store",
            "Toy Store",
        ),
        "Services": (
            "Salon",
            "Laundry Service",
            "Bank",
            "Pharmacy",
            "Mobile Phone Shop",
            "Hardware Store",
        ),
        "Mall": ("Shopping Mall", "Outlet Mall"),
    },
    "Work": {
        "Office": (
            "Corporate Office",
            "Coworking Space",
            "Tech Startup",
            "Government Building",
            "Law Office",
        ),
        "Industry": ("Factory", "Warehouse", "Construction Site"),
        "Health Work": ("Hospital", "Medical Center", "Dental Office", "Veterinarian"),
    },
    "Residence": {
        "Housing": ("Home (private)", "Apartment Building", "Housing Development", "Dormitory"),
        "Lodging": ("Hotel", "Hostel", "Bed & Breakfast"),
    },
    "Education": {
        "Campus": (
            "University",
            "College Classroom",
            "College Library",
            "College Cafeteria",
        ),
        "School": ("High School", "Middle School", "Elementary School", "Language School"),
        "Library": ("Public Library", "Research Library"),
    },
    "Transport": {
        "Rail": ("Subway Station", "Train Station", "Light Rail Station"),
        "Road": ("Bus Stop", "Taxi Stand", "Parking Lot", "Gas Station", "Bridge"),
        "Air & Water": ("Airport", "Airport Terminal", "Ferry Terminal", "Pier"),
    },
    "Entertainment": {
        "Performance": ("Movie Theater", "Concert Hall", "Theater", "Comedy Club"),
        "Culture": ("Art Museum", "History Museum", "Art Gallery", "Aquarium", "Zoo"),
        "Games": ("Arcade", "Bowling Alley", "Casino", "Pool Hall"),
        "Sport Venue": ("Stadium", "Basketball Court", "Baseball Field", "Hockey Arena"),
    },
    "Nightlife": {
        "Bar": ("Dive Bar", "Cocktail Bar", "Wine Bar", "Sports Bar", "Pub", "Beer Garden"),
        "Club": ("Nightclub", "Lounge", "Karaoke Bar", "Jazz Club"),
    },
    "Outdoors": {
        "Green Space": ("Park", "Playground", "Botanical Garden", "Dog Run", "Plaza"),
        "Fitness": ("Gym", "Yoga Studio", "Cycling Track", "Swimming Pool", "Climbing Gym"),
        "Nature": ("Beach", "Trail", "Scenic Lookout", "River", "Lake"),
    },
}


def build_default_taxonomy() -> CategoryTree:
    """Construct the built-in taxonomy (deterministic ids, validated)."""
    tree = CategoryTree()
    for root_index, (root_name, groups) in enumerate(DEFAULT_TAXONOMY_SPEC.items()):
        root_id = f"4sq-root-{root_index:02d}"
        tree.add(root_id, root_name)
        for mid_index, (mid_name, leaf_names_) in enumerate(groups.items()):
            mid_id = f"{root_id}-m{mid_index:02d}"
            tree.add(mid_id, mid_name, parent_id=root_id)
            for leaf_index, leaf_name in enumerate(leaf_names_):
                tree.add(f"{mid_id}-l{leaf_index:02d}", leaf_name, parent_id=mid_id)
    tree.validate()
    return tree


def root_names() -> List[str]:
    """Names of the top-level categories in spec order."""
    return list(DEFAULT_TAXONOMY_SPEC)
